package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"hash"
	"slices"
	"sync"
)

// A sealer is split in two halves so that every node holding the same
// directory key can share the expensive one:
//
//   - KeyState, the immutable keyed half: the two subkey derivations
//     (Kencr = F_k(0), KMAC = F_k(1)), the AES key schedule, and the
//     HMAC-SHA256 ipad/opad midstates. It is computed once per key and is
//     safe for concurrent use, so a Keyring interns one per distinct key
//     for a whole deployment.
//   - Scratch, the mutable per-caller half: the SHA-256 digest the MAC
//     runs on and the counter, keystream and tag buffers. Each caller (in
//     the protocol, each node) owns one and uses it with any KeyState.
//
// Output is byte-identical to the one-shot Seal/Open —
// TestSealerMatchesSeal and TestSharedKeyStateMatchesSeal pin this — so
// callers may mix the paths freely; the split only changes who pays the
// setup cost and how often.

// KeyState is the immutable keyed half of a sealer for one directory key.
// Take a shared one from a Keyring.
type KeyState struct {
	enc cipher.Block // AES-128 keyed with Kencr; Encrypt is concurrency-safe

	// ipad and opad are the marshaled SHA-256 states after absorbing the
	// (KMAC ^ ipad) and (KMAC ^ opad) blocks — the midstates crypto/hmac
	// restores on every Reset and Sum.
	ipad, opad []byte

	// gcm is AES-GCM over enc, used only as a pipelined CTR keystream
	// for long messages (see xorKeyStream). It is built on the first
	// long message under this key, so keys that never carry one do not
	// pay for it; Seal is concurrency-safe.
	gcmOnce sync.Once
	gcm     cipher.AEAD
}

// init derives the encryption and MAC subkeys from k and precomputes
// their cipher state.
func (st *KeyState) init(k Key) {
	encKey := DeriveKey(k, LabelEncrypt)
	macKey := DeriveKey(k, LabelMAC)
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		// Key is always KeySize bytes; aes.NewCipher cannot fail.
		panic("crypt: aes.NewCipher: " + err.Error())
	}
	st.enc = block
	// KMAC is shorter than the SHA-256 block, so HMAC's padded key is
	// KMAC followed by zeros.
	var pad [sha256.BlockSize]byte
	copy(pad[:], macKey[:])
	for i := range pad {
		pad[i] ^= 0x36
	}
	st.ipad = midstate(pad[:])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	st.opad = midstate(pad[:])
}

// midstate returns the marshaled SHA-256 state after absorbing block.
func midstate(block []byte) []byte {
	h := sha256.New()
	h.Write(block)
	b, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("crypt: sha256 MarshalBinary: " + err.Error())
	}
	return b
}

// restorableHash is a hash whose state can be reset to a marshaled one.
type restorableHash interface {
	hash.Hash
	encoding.BinaryUnmarshaler
}

// Scratch is the mutable per-caller half of a sealer. The zero value is
// ready to use with any KeyState; it is not safe for concurrent use.
// Seal and open calls through one Scratch allocate nothing once its
// digest exists (after the first call).
type Scratch struct {
	h   restorableHash
	sum [sha256.Size]byte // inner and outer MAC digests
	// Counter/keystream scratch for xorKeyStream: locals would escape to
	// the heap through the cipher.Block interface call, so they live here.
	ctr [aes.BlockSize]byte
	ks  [aes.BlockSize]byte
	nb  [8]byte
	iv  [gcmNonceSize]byte
}

// restore resets the scratch digest to the marshaled state b.
func (sc *Scratch) restore(b []byte) {
	if sc.h == nil {
		sc.h = sha256.New().(restorableHash)
	}
	if err := sc.h.UnmarshalBinary(b); err != nil {
		panic("crypt: sha256 UnmarshalBinary: " + err.Error())
	}
}

// gcmCutoff is the message length from which xorKeyStream runs the
// keystream's tail through GCM. Below it, GCM's fixed cost (the counter
// block J0, the GHASH finalization and the discarded tag) outweighs its
// pipelined AES: opening a 128-byte sealed payload was faster per block,
// 176 bytes and up faster through GCM (AES-NI, Go 1.24).
// BenchmarkSealerOpen64/290/1024 re-measure both sides.
const gcmCutoff = 160

// gcmNonceSize and gcmTagSize are GCM's standard nonce and tag sizes.
const (
	gcmNonceSize = 12
	gcmTagSize   = 16
)

// keystreamRoom returns how much spare capacity xorKeyStream needs past
// an n-byte output: GCM writes its tag there.
func keystreamRoom(n int) int {
	if n >= gcmCutoff {
		return gcmTagSize
	}
	return 0
}

// xorKeyStream is AES-CTR with the 64-bit nonce in the first 8 counter
// bytes — bit-for-bit the keystream cipher.NewCTR produces for the same
// IV (NewCTR increments the whole 16-byte counter big-endian; starting
// from nonce||0 the two walks are identical for any message under 2^64
// blocks, i.e. always). Reimplemented here only to skip NewCTR's per-call
// stream-state allocation. dst may alias src exactly.
//
// Messages of gcmCutoff bytes or more take a pipelined path for blocks
// 2 onward: GCM with the 96-bit IV nonce||0^32 starts its counter at
// J0 = IV||0^31||1 and encrypts block j under inc32^(j+1)(J0) =
// nonce||0^32||(2+j) (NIST SP 800-38D), which is exactly this CTR's
// block 2+j for any message under 2^32 blocks. GCM's Seal over the
// plaintext tail therefore yields the ciphertext tail; its tag is
// discarded. That tag is written to the gcmTagSize bytes past
// len(src) in dst's spare capacity, so the caller must provide
// keystreamRoom(len(src)) bytes of it and not expect them preserved.
func (sc *Scratch) xorKeyStream(st *KeyState, nonce uint64, dst, src []byte) {
	if len(src) < gcmCutoff {
		sc.ctrBlocks(st, nonce, dst, src)
		return
	}
	const head = 2 * aes.BlockSize
	sc.ctrBlocks(st, nonce, dst[:head], src[:head])
	st.gcmOnce.Do(func() {
		g, err := cipher.NewGCM(st.enc)
		if err != nil {
			// enc is an AES block; GCM with standard sizes cannot fail.
			panic("crypt: cipher.NewGCM: " + err.Error())
		}
		st.gcm = g
	})
	binary.BigEndian.PutUint64(sc.iv[:8], nonce) // iv[8:] stays zero
	st.gcm.Seal(dst[head:head], sc.iv[:], src[head:], nil)
}

// ctrBlocks is xorKeyStream one block at a time, from counter block 0.
func (sc *Scratch) ctrBlocks(st *KeyState, nonce uint64, dst, src []byte) {
	ctr, ks := sc.ctr[:], sc.ks[:]
	for i := range ctr {
		ctr[i] = 0
	}
	binary.BigEndian.PutUint64(ctr[:8], nonce)
	for len(src) > 0 {
		st.enc.Encrypt(ks, ctr)
		n := subtle.XORBytes(dst, src, ks)
		dst, src = dst[n:], src[n:]
		for i := aes.BlockSize - 1; i >= 0; i-- {
			ctr[i]++
			if ctr[i] != 0 {
				break
			}
		}
	}
}

// tag returns the truncated HMAC tag over (aad | nonce | ct), backed by
// the scratch's sum buffer: valid until the next call on sc.
func (sc *Scratch) tag(st *KeyState, nonce uint64, aad, ct []byte) []byte {
	binary.BigEndian.PutUint64(sc.nb[:], nonce)
	sc.restore(st.ipad)
	sc.h.Write(aad)
	sc.h.Write(sc.nb[:])
	sc.h.Write(ct)
	inner := sc.h.Sum(sc.sum[:0])
	sc.restore(st.opad)
	sc.h.Write(inner)
	return sc.h.Sum(sc.sum[:0])[:MACSize]
}

// AppendSeal appends the authenticated encryption of plaintext under st
// (same bytes Seal returns for st's key) to dst and returns the extended
// slice. Passing dst with spare capacity makes the call allocation-free;
// the appended region never aliases plaintext or aad. For plaintexts of
// gcmCutoff bytes or more the call also overwrites up to 8 bytes of
// dst's capacity past the returned slice (the keystream's discarded GCM
// tag), and counts them in the capacity it needs.
func (sc *Scratch) AppendSeal(st *KeyState, dst []byte, nonce uint64, aad, plaintext []byte) []byte {
	off := len(dst)
	dst = slices.Grow(dst, len(plaintext)+max(Overhead, keystreamRoom(len(plaintext))))[:off+len(plaintext)]
	sc.xorKeyStream(st, nonce, dst[off:], plaintext)
	return append(dst, sc.tag(st, nonce, aad, dst[off:])...)
}

// AppendOpen verifies and decrypts a Seal/AppendSeal output under st,
// appending the plaintext to dst. On any authentication failure it
// returns (dst, false) with dst unmodified and without leaking which
// check failed. As with AppendSeal, spare capacity in dst makes the call
// allocation-free, and long messages overwrite up to 16 bytes of it past
// the returned slice; callers that hand the plaintext to long-lived
// consumers must pass a fresh dst (conventionally nil) rather than
// recycled scratch.
func (sc *Scratch) AppendOpen(st *KeyState, dst []byte, nonce uint64, aad, sealed []byte) ([]byte, bool) {
	if len(sealed) < Overhead {
		return dst, false
	}
	ctLen := len(sealed) - Overhead
	if subtle.ConstantTimeCompare(sealed[ctLen:], sc.tag(st, nonce, aad, sealed[:ctLen])) != 1 {
		return dst, false
	}
	off := len(dst)
	dst = slices.Grow(dst, ctLen+keystreamRoom(ctLen))[:off+ctLen]
	sc.xorKeyStream(st, nonce, dst[off:], sealed[:ctLen])
	return dst, true
}

// Sealer is an allocation-free equivalent of Seal/Open for one directory
// key: a private KeyState with its own Scratch. It is not safe for
// concurrent use. Callers that hold many keys, or share keys with other
// callers, should keep one Scratch and take KeyStates from a Keyring
// instead.
type Sealer struct {
	st KeyState
	sc Scratch
}

// NewSealer derives the encryption and MAC subkeys from k and precomputes
// their cipher state.
func NewSealer(k Key) *Sealer {
	s := new(Sealer)
	s.st.init(k)
	return s
}

// AppendSeal is Scratch.AppendSeal under the sealer's key.
func (s *Sealer) AppendSeal(dst []byte, nonce uint64, aad, plaintext []byte) []byte {
	return s.sc.AppendSeal(&s.st, dst, nonce, aad, plaintext)
}

// AppendOpen is Scratch.AppendOpen under the sealer's key.
func (s *Sealer) AppendOpen(dst []byte, nonce uint64, aad, sealed []byte) ([]byte, bool) {
	return s.sc.AppendOpen(&s.st, dst, nonce, aad, sealed)
}

// Keyring interns one KeyState per distinct key among its holders and
// counts their references: the first Acquire of a key builds its state,
// later ones share it, and the Release that drops the last reference
// removes the entry, so the ring holds exactly the keys some holder
// still holds. Its lifetime is its owner's (in the protocol, one
// deployment); nothing is global.
//
// Acquire and Release take the ring's mutex, so one ring may serve
// concurrent holders (sim shards, live node goroutines). The KeyStates it
// hands out are immutable and safe to use from any goroutine.
type Keyring struct {
	mu      sync.Mutex
	entries map[Key]*ringEntry
}

type ringEntry struct {
	st   KeyState
	refs int
}

// NewKeyring returns an empty keyring.
func NewKeyring() *Keyring { return &Keyring{entries: make(map[Key]*ringEntry)} }

// Acquire returns the shared KeyState for k, building it on the first
// reference, and takes one reference. Every Acquire must be paired with
// one Release of the same key.
func (r *Keyring) Acquire(k Key) *KeyState {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[k]
	if e == nil {
		e = new(ringEntry)
		e.st.init(k)
		r.entries[k] = e
	}
	e.refs++
	return &e.st
}

// Release drops one reference to k, removing its entry with the last.
// Releasing a key with no references is a bookkeeping bug and panics.
func (r *Keyring) Release(k Key) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[k]
	if e == nil {
		panic("crypt: Keyring.Release of a key with no references")
	}
	if e.refs--; e.refs == 0 {
		delete(r.entries, k)
	}
}

// Len returns the number of distinct keys with live references.
func (r *Keyring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Refs returns the number of live references to k (0 if it has no entry).
func (r *Keyring) Refs(k Key) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[k]; e != nil {
		return e.refs
	}
	return 0
}
