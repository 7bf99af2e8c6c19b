// Package crypt implements the symmetric cryptography the protocol is built
// on, using only the Go standard library: AES-128 in counter mode for
// encryption, HMAC-SHA256 (truncated) for message authentication, an
// HMAC-based pseudo-random function F for all key derivation, and the
// one-way hash key chains the base station uses to authenticate revocation
// commands (Section IV-D of the paper).
//
// The paper prescribes the key-separation discipline implemented here:
// "use different keys for different cryptographic operations ... we use
// independent keys for the encryption and authentication operations, Kencr
// and KMAC respectively, which are derived from the unique key Ki that the
// node shares with the base station. For example we may take Kencr = F_Ki(0)
// and KMAC = F_Ki(1), where F is some secure pseudo-random function."
// Cluster keys for late-deployed nodes are likewise derived as
// Kci = F(KMC, i) (Section IV-E).
//
// F is HMAC-SHA256 throughout, computed without a crypto/hmac state: the
// padded key blocks and the message are hashed directly with
// sha256.Sum256. Inputs of at most 64 bytes (every derivation the protocol
// makes: a label plus a few context bytes) sit in fixed-size stack
// buffers, so PRF, DeriveKey and DeriveID allocate nothing. Longer inputs,
// such as the MACs of the one-shot Seal and Open, are copied into one heap
// buffer instead.
//
// Nothing in this package is mocked: every protocol message in the simulator
// is really encrypted and really authenticated, so tampering and replay
// tests exercise genuine cryptographic failure paths. Verification is
// shared in one case only. A Scratch from NewSharedScratch remembers the
// frames it has sealed or verified, and an open of byte-identical input
// (the same KeyState, nonce, associated data and sealed bytes) that its
// table still holds returns the remembered plaintext without recomputing
// the MAC. That is exact, because sealing is deterministic: for that input
// the full check would accept and decrypt to the same bytes. Any other
// input, including one flipped bit or another key, is verified in full.
// A simulation host hands one such Scratch to all the nodes it runs on one
// goroutine, so a cluster-keyed broadcast that every neighbour opens is
// verified there once. Each node still charges its own energy meter for
// every MAC and cipher byte. The zero-value Scratch and the Sealer never
// share.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"slices"
)

const (
	// KeySize is the symmetric key size in bytes (AES-128).
	KeySize = 16
	// MACSize is the truncated HMAC-SHA256 tag length. Eight bytes is the
	// customary sensor-network trade-off (TinySec used 4; SPINS used 8):
	// forgery requires 2^64 online attempts while saving radio bytes.
	MACSize = 8
)

// Key is a 128-bit symmetric key.
type Key [KeySize]byte

// KeyFromBytes copies up to KeySize bytes of b into a Key (zero padded).
func KeyFromBytes(b []byte) Key {
	var k Key
	copy(k[:], b)
	return k
}

// RandomKey returns a fresh key from the operating system's CSPRNG. Used
// for real deployments; simulations derive keys deterministically from a
// seed through an Authority so experiments are reproducible.
func RandomKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("crypt: reading random key: %w", err)
	}
	return k, nil
}

// Zero erases the key material. The protocol calls this when the paper says
// a key must be deleted (Km after setup, KMC after node addition).
func (k *Key) Zero() {
	for i := range k {
		k[i] = 0
	}
}

// IsZero reports whether the key is all zeroes (i.e. erased or never set).
func (k Key) IsZero() bool {
	var acc byte
	for _, b := range k {
		acc |= b
	}
	return acc == 0
}

// Equal compares two keys in constant time.
func (k Key) Equal(other Key) bool {
	return subtle.ConstantTimeCompare(k[:], other[:]) == 1
}

// PRF is the secure pseudo-random function F used throughout the protocol,
// instantiated as HMAC-SHA256. It maps a key and arbitrary input parts to
// 32 pseudo-random bytes.
func PRF(k Key, parts ...[]byte) [32]byte { return prf(k, nil, parts) }

// prfFastMax is the longest PRF input hashed in a stack buffer.
const prfFastMax = 64

// prf is HMAC-SHA256 under k of head followed by parts, computed as
// SHA256((K^opad) | SHA256((K^ipad) | msg)). The key is shorter than a
// block, so HMAC zero-pads it and the pad bytes past KeySize are the bare
// ipad/opad constants. The inner block and the message share one buffer:
// a stack array for inputs of at most prfFastMax bytes, a heap slice for
// longer ones. sha256.Sum256 does not retain its argument, so the short
// path allocates nothing.
func prf(k Key, head []byte, parts [][]byte) [32]byte {
	n := len(head)
	for _, p := range parts {
		n += len(p)
	}
	var stack [sha256.BlockSize + prfFastMax]byte
	inner := stack[:]
	if n > prfFastMax {
		inner = make([]byte, sha256.BlockSize+n)
	}
	for i := range sha256.BlockSize {
		inner[i] = 0x36
	}
	for i, b := range k {
		inner[i] ^= b
	}
	off := sha256.BlockSize + copy(inner[sha256.BlockSize:], head)
	for _, p := range parts {
		off += copy(inner[off:], p)
	}
	sum := sha256.Sum256(inner[:off])
	var outer [sha256.BlockSize + sha256.Size]byte
	for i := range sha256.BlockSize {
		outer[i] = 0x5c
	}
	for i, b := range k {
		outer[i] ^= b
	}
	copy(outer[sha256.BlockSize:], sum[:])
	return sha256.Sum256(outer[:])
}

// Derivation labels for DeriveKey, mirroring the paper's F_K(0) / F_K(1)
// convention plus the labels this implementation adds for the key chain and
// cluster-key derivation.
const (
	LabelEncrypt byte = 0 // Kencr = F_K(0)
	LabelMAC     byte = 1 // KMAC  = F_K(1)
	LabelCluster byte = 2 // Kci   = F(KMC, i): context carries the node ID
	LabelNode    byte = 3 // Ki    = F(root, i) for the pre-deployment authority
	LabelChain   byte = 4 // seed of the revocation key chain
	LabelRefresh byte = 5 // hash-forward key refresh Kc' = F(Kc)
)

// DeriveKey derives a subkey from k for the given label and optional
// context bytes, truncating the PRF output to KeySize.
func DeriveKey(k Key, label byte, context ...[]byte) Key {
	out := prf(k, []byte{label}, context)
	return KeyFromBytes(out[:KeySize])
}

// DeriveID derives a subkey bound to a 32-bit identifier (a node or cluster
// ID), the common case for LabelCluster and LabelNode.
func DeriveID(k Key, label byte, id uint32) Key {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], id)
	return DeriveKey(k, label, buf[:])
}

// MAC computes the truncated HMAC-SHA256 tag over the concatenation of
// parts under key k.
func MAC(k Key, parts ...[]byte) [MACSize]byte {
	full := PRF(k, parts...)
	var tag [MACSize]byte
	copy(tag[:], full[:MACSize])
	return tag
}

// VerifyMAC reports whether tag authenticates parts under k, comparing in
// constant time.
func VerifyMAC(k Key, tag []byte, parts ...[]byte) bool {
	want := MAC(k, parts...)
	return subtle.ConstantTimeCompare(tag, want[:]) == 1
}

// XORKeyStream applies AES-128-CTR keyed by k with the given 64-bit nonce
// to src, writing to dst (which may alias src). The nonce occupies the
// first 8 bytes of the counter block, so distinct nonces never collide with
// the per-block counter in the low 8 bytes for messages under 2^64 blocks.
// CTR encryption and decryption are the same operation.
func XORKeyStream(k Key, nonce uint64, dst, src []byte) {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		// Key is always KeySize bytes; aes.NewCipher cannot fail.
		panic("crypt: aes.NewCipher: " + err.Error())
	}
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], nonce)
	cipher.NewCTR(block, iv[:]).XORKeyStream(dst, src)
}

// Encrypt returns the CTR encryption of plaintext under k with the given
// nonce. The same (key, nonce) pair must never encrypt two different
// messages; the protocol guarantees this with monotone counters
// (Section IV-C Step 1: "Encryption is performed through the use of a
// counter C that is shared between the source node and the base station...
// in order to achieve semantic security").
func Encrypt(k Key, nonce uint64, plaintext []byte) []byte {
	ct := make([]byte, len(plaintext))
	XORKeyStream(k, nonce, ct, plaintext)
	return ct
}

// Decrypt inverts Encrypt.
func Decrypt(k Key, nonce uint64, ciphertext []byte) []byte {
	return Encrypt(k, nonce, ciphertext) // CTR is an involution
}

// Overhead is the number of bytes Seal adds to a plaintext.
const Overhead = MACSize

// Seal produces the authenticated encryption of plaintext under the
// directory key k: it derives Kencr = F_k(0) and KMAC = F_k(1) per the
// paper, CTR-encrypts with the nonce, and appends a truncated MAC over
// (aad | nonce | ciphertext). aad is authenticated but not encrypted (the
// protocol puts the cluster ID there so forwarders can pick the right key).
func Seal(k Key, nonce uint64, aad, plaintext []byte) []byte {
	return SealAppend(make([]byte, 0, len(plaintext)+Overhead), k, nonce, aad, plaintext)
}

// SealAppend is Seal writing into caller-provided space: it appends the
// sealed message to dst and returns the extended slice. The appended
// bytes are exactly Seal's output. Callers that amortize one key over
// many messages should prefer a Sealer, which also caches the subkey
// derivations and cipher state.
func SealAppend(dst []byte, k Key, nonce uint64, aad, plaintext []byte) []byte {
	encKey := DeriveKey(k, LabelEncrypt)
	macKey := DeriveKey(k, LabelMAC)
	off := len(dst)
	dst = slices.Grow(dst, len(plaintext)+Overhead)[:off+len(plaintext)]
	XORKeyStream(encKey, nonce, dst[off:], plaintext)
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	tag := MAC(macKey, aad, nb[:], dst[off:])
	return append(dst, tag[:]...)
}

// Open verifies and decrypts a Seal output. It returns the plaintext and
// true on success; on any authentication failure it returns (nil, false)
// without leaking which check failed.
func Open(k Key, nonce uint64, aad, sealed []byte) ([]byte, bool) {
	if len(sealed) < Overhead {
		return nil, false
	}
	pt, ok := OpenAppend(make([]byte, 0, len(sealed)-Overhead), k, nonce, aad, sealed)
	if !ok {
		return nil, false
	}
	return pt, true
}

// OpenAppend is Open writing into caller-provided space: on success it
// appends the plaintext to dst and returns (extended slice, true); on any
// authentication failure it returns (dst, false) with dst unmodified.
func OpenAppend(dst []byte, k Key, nonce uint64, aad, sealed []byte) ([]byte, bool) {
	if len(sealed) < Overhead {
		return dst, false
	}
	ctLen := len(sealed) - Overhead
	macKey := DeriveKey(k, LabelMAC)
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	if !VerifyMAC(macKey, sealed[ctLen:], aad, nb[:], sealed[:ctLen]) {
		return dst, false
	}
	encKey := DeriveKey(k, LabelEncrypt)
	off := len(dst)
	dst = slices.Grow(dst, ctLen)[:off+ctLen]
	XORKeyStream(encKey, nonce, dst[off:], sealed[:ctLen])
	return dst, true
}

// HashForward is the one-way function used both for hash-based key refresh
// (Section IV-C: "renew the cluster keys by periodically hashing these keys
// at fixed time intervals") and as the chain step F with K_{l-1} = F(K_l)
// (Section IV-D). It is SHA-256 truncated to the key size, which is
// preimage-resistant and therefore impossible to run backwards.
func HashForward(k Key) Key {
	sum := sha256.Sum256(k[:])
	return KeyFromBytes(sum[:KeySize])
}
