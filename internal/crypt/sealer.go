package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"hash"
	"slices"
	"sync"
	"sync/atomic"
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
//     the protocol, each host goroutine) owns one and uses it with any
//     KeyState. A Scratch from NewSharedScratch also remembers the frames
//     it has verified (see memo), so a broadcast that several nodes of one
//     host open is verified there once.
//
// Output is byte-identical to the one-shot Seal/Open —
// TestSealerMatchesSeal, TestSharedKeyStateMatchesSeal and
// TestSharedScratchMatchesZeroValue pin this — so callers may mix the
// paths freely; the split only changes who pays the setup cost and how
// often.

// KeyState is the immutable keyed half of a sealer for one directory key.
// Take a shared one from a Keyring.
type KeyState struct {
	// serial names this state in memo tables. It is unique for the life
	// of the process and never reused, so a table slot can never match a
	// state built later, even one for the same key, and no slot needs to
	// hold a pointer that would keep a released state reachable.
	serial uint64

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

// keySerials hands out KeyState serials; 0 is never handed out, so it marks
// an empty memo slot.
var keySerials atomic.Uint64

// init derives the encryption and MAC subkeys from k and precomputes
// their cipher state.
func (st *KeyState) init(k Key) {
	st.serial = keySerials.Add(1)
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
//
// A Scratch from NewSharedScratch carries a memo table of verified
// frames; the zero value, and the one inside every Sealer, has none and
// runs the full HMAC and AES-CTR path on every call. So a Sealer always
// measures real verification, and only a host that hands one Scratch to
// all the behaviors it runs on one goroutine shares the work.
type Scratch struct {
	memo *memo // nil: every open is verified in full
	h    restorableHash
	sum  [sha256.Size]byte // inner and outer MAC digests
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
	// Each half of the memo slot is filled while its source is intact,
	// so an in-place seal still remembers the right pair.
	s := sc.memo.claim(st.serial, nonce, aad, len(plaintext)+Overhead)
	if s != nil {
		copy(s.plain(), plaintext)
	}
	sc.xorKeyStream(st, nonce, dst[off:], plaintext)
	dst = append(dst, sc.tag(st, nonce, aad, dst[off:])...)
	if s != nil {
		copy(s.sealed(), dst[off:])
	}
	return dst
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
	if sc.memo != nil {
		if pt, ok := sc.memo.get(st.serial, nonce, aad, sealed); ok {
			// Reserve what the full path would, so a caller's buffer
			// grows the same way whichever path answers.
			return append(slices.Grow(dst, len(pt)+keystreamRoom(len(pt))), pt...), true
		}
	}
	ctLen := len(sealed) - Overhead
	if subtle.ConstantTimeCompare(sealed[ctLen:], sc.tag(st, nonce, aad, sealed[:ctLen])) != 1 {
		return dst, false
	}
	s := sc.memo.claim(st.serial, nonce, aad, len(sealed))
	if s != nil {
		copy(s.sealed(), sealed) // before an in-place open overwrites it
	}
	off := len(dst)
	dst = slices.Grow(dst, ctLen+keystreamRoom(ctLen))[:off+ctLen]
	sc.xorKeyStream(st, nonce, dst[off:], sealed[:ctLen])
	if s != nil {
		copy(s.plain(), dst[off:])
	}
	return dst, true
}

// NewSharedScratch returns a Scratch with a memo table of verified
// frames, for a host to share among every behavior it runs on one
// goroutine. An open of byte-identical input under the same KeyState
// that the table still holds returns the remembered plaintext; every
// other open takes the full path. See memo for why that is exact.
func NewSharedScratch() *Scratch {
	return &Scratch{memo: &memo{slots: make([]memoSlot, memoSlots)}}
}

// MemoStats returns how many opens through sc the memo table answered
// and how many it looked up and missed. Both are 0 without a table. The
// sim engine reports them as crypt_memo_hits_total and
// crypt_memo_misses_total.
func (sc *Scratch) MemoStats() (hits, misses uint64) {
	if sc.memo == nil {
		return 0, 0
	}
	return sc.memo.hits, sc.memo.misses
}

// memo remembers frames a Scratch has sealed or verified: a fixed-size,
// direct-mapped table indexed by a hash of the nonce. A slot holds the
// KeyState's serial, the nonce, and the aad, sealed and plaintext bytes
// inline; a newer frame for the same slot overwrites it, and frames too
// long for a slot are not remembered.
//
// A hit needs the same serial and nonce and byte-equal aad and sealed
// input. Sealing is deterministic, so for that input the full path
// would compute the same tag, accept it, and decrypt to the same
// plaintext: the answer is exact, not a guess. Anything else — a flipped
// byte anywhere, a different key, a key released and acquired again (a
// new serial) — misses and is verified in full, so a tampered or
// wrong-key frame fails as it always did. The byte comparisons are not
// constant-time; they only tell whether a frame equals one the host
// already received, which an eavesdropper on the same radio also sees.
type memo struct {
	slots        []memoSlot
	hits, misses uint64
}

// memoSlots is the table size, a power of two; memoSlotBytes is the
// inline capacity of a slot, sized so a slot takes 1 KiB. A frame is
// remembered when its aad, sealed bytes and plaintext together fit:
// sealed input up to about 500 bytes, which covers a full batch of
// eight readings. The 64 slots (64 KiB) come from a slot-count sweep
// (docs/THROUGHPUT.md): more slots raised the hit rate a little, and the
// peak RSS of a run of small deployments by about three times the
// table's size.
const (
	memoBits      = 6
	memoSlots     = 1 << memoBits
	memoSlotBytes = 1000
)

type memoSlot struct {
	serial        uint64 // KeyState serial; 0 marks an empty slot
	nonce         uint64
	aadN, sealedN uint16
	buf           [memoSlotBytes]byte // aad ‖ sealed ‖ plaintext
}

// slot returns nonce's slot (Fibonacci hashing: the protocol's nonces
// differ mostly in their low bits, which the multiply spreads upward).
func (m *memo) slot(nonce uint64) *memoSlot {
	return &m.slots[(nonce*0x9e3779b97f4a7c15)>>(64-memoBits)]
}

// get returns the remembered plaintext of a frame, or false.
func (m *memo) get(serial, nonce uint64, aad, sealed []byte) ([]byte, bool) {
	s := m.slot(nonce)
	if s.serial != serial || s.nonce != nonce || int(s.aadN) != len(aad) || int(s.sealedN) != len(sealed) ||
		!bytes.Equal(s.buf[:len(aad)], aad) || !bytes.Equal(s.sealed(), sealed) {
		m.misses++
		return nil, false
	}
	m.hits++
	return s.plain(), true
}

// claim gives nonce's slot to a frame under the state with serial whose
// sealed input is n bytes long, copies aad in, and returns the slot; the
// caller copies the sealed bytes and the plaintext into s.sealed() and
// s.plain(). It returns nil without a table or when the frame does not
// fit a slot.
func (m *memo) claim(serial, nonce uint64, aad []byte, n int) *memoSlot {
	if m == nil || len(aad)+2*n-Overhead > memoSlotBytes {
		return nil
	}
	s := m.slot(nonce)
	s.serial, s.nonce = serial, nonce
	s.aadN, s.sealedN = uint16(len(aad)), uint16(n)
	copy(s.buf[:], aad)
	return s
}

func (s *memoSlot) sealed() []byte {
	a := int(s.aadN)
	return s.buf[a : a+int(s.sealedN)]
}

func (s *memoSlot) plain() []byte {
	a, n := int(s.aadN), int(s.sealedN)
	return s.buf[a+n : a+2*n-Overhead]
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
