package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// TestXORKeyStreamMatchesStdlibDirectly cross-checks our CTR construction
// against a from-first-principles use of crypto/aes + crypto/cipher, so a
// refactor cannot silently change the keystream layout (which would break
// interop between nodes built from different revisions).
func TestXORKeyStreamMatchesStdlibDirectly(t *testing.T) {
	f := func(keyRaw [KeySize]byte, nonce uint64, pt []byte) bool {
		k := Key(keyRaw)
		got := make([]byte, len(pt))
		XORKeyStream(k, nonce, got, pt)

		block, err := aes.NewCipher(k[:])
		if err != nil {
			return false
		}
		var iv [aes.BlockSize]byte
		binary.BigEndian.PutUint64(iv[:8], nonce)
		want := make([]byte, len(pt))
		cipher.NewCTR(block, iv[:]).XORKeyStream(want, pt)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchKeyStreamMatchesStdlibDirectly is the Scratch path's twin of
// TestXORKeyStreamMatchesStdlibDirectly: the keystream AppendSeal and
// AppendOpen run, per-block below gcmCutoff and GCM-backed from it on,
// must equal cipher.NewCTR's at every length from 0 to 600 B, at nonces
// 0, 2^64-1 and random, both into a separate buffer and in place.
func TestScratchKeyStreamMatchesStdlibDirectly(t *testing.T) {
	k := testKey(71)
	r := NewKeyring()
	st := r.Acquire(k)
	encKey := DeriveKey(k, LabelEncrypt) // the subkey a KeyState encrypts under
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	rng := xrand.New(71)
	src := make([]byte, 600)
	for i := range src {
		src[i] = byte(rng.Uint64n(256))
	}
	for n := 0; n <= len(src); n++ {
		for _, nonce := range testNonces(rng) {
			var iv [aes.BlockSize]byte
			binary.BigEndian.PutUint64(iv[:8], nonce)
			want := make([]byte, n)
			cipher.NewCTR(block, iv[:]).XORKeyStream(want, src[:n])

			got := make([]byte, n, n+keystreamRoom(n))
			sc.xorKeyStream(st, nonce, got, src[:n])
			if !bytes.Equal(got, want) {
				t.Fatalf("len %d nonce %#x: Scratch keystream differs from cipher.NewCTR", n, nonce)
			}
			inPlace := append(make([]byte, 0, n+keystreamRoom(n)), src[:n]...)
			sc.xorKeyStream(st, nonce, inPlace, inPlace)
			if !bytes.Equal(inPlace, want) {
				t.Fatalf("len %d nonce %#x: in-place Scratch keystream differs from cipher.NewCTR", n, nonce)
			}
		}
	}
}

// TestPRFIsHMACSHA256 pins the PRF construction to HMAC-SHA256 exactly.
func TestPRFIsHMACSHA256(t *testing.T) {
	k := testKey(31)
	msg := []byte("pin me down")
	got := PRF(k, msg)
	mac := hmac.New(sha256.New, k[:])
	mac.Write(msg)
	want := mac.Sum(nil)
	if !bytes.Equal(got[:], want) {
		t.Fatal("PRF deviates from HMAC-SHA256")
	}
}

// TestHashForwardIsTruncatedSHA256 pins the chain step.
func TestHashForwardIsTruncatedSHA256(t *testing.T) {
	k := testKey(33)
	want := sha256.Sum256(k[:])
	got := HashForward(k)
	if !bytes.Equal(got[:], want[:KeySize]) {
		t.Fatal("HashForward deviates from truncated SHA-256")
	}
}

// TestSealDomainSeparation: the same plaintext sealed under related but
// distinct key/nonce/aad contexts must never collide.
func TestSealDomainSeparation(t *testing.T) {
	pt := []byte("constant plaintext")
	base := Seal(testKey(35), 1, []byte("aad"), pt)
	variants := [][]byte{
		Seal(testKey(36), 1, []byte("aad"), pt),  // different key
		Seal(testKey(35), 2, []byte("aad"), pt),  // different nonce
		Seal(testKey(35), 1, []byte("aadX"), pt), // different aad (tag differs)
	}
	for i, v := range variants {
		if bytes.Equal(base, v) {
			t.Fatalf("variant %d collides with base sealing", i)
		}
	}
}

// TestOpenLengthOracleAbsent: Open must reject any truncation or
// extension of a valid sealing, at every length.
func TestOpenLengthOracleAbsent(t *testing.T) {
	k := testKey(37)
	sealed := Seal(k, 9, nil, []byte("0123456789"))
	for l := 0; l < len(sealed); l++ {
		if _, ok := Open(k, 9, nil, sealed[:l]); ok {
			t.Fatalf("truncation to %d accepted", l)
		}
	}
	if _, ok := Open(k, 9, nil, append(append([]byte(nil), sealed...), 0)); ok {
		t.Fatal("extension accepted")
	}
}

// TestChainCommitmentsUnique: over a long chain, all values must be
// distinct (a cycle would let replays verify).
func TestChainCommitmentsUnique(t *testing.T) {
	c := NewChain(testKey(39), 512)
	seen := make(map[Key]int, 513)
	seen[c.Commitment()] = 0
	for l := 1; l <= c.Len(); l++ {
		k, err := c.Reveal(l)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("chain values %d and %d collide", prev, l)
		}
		seen[k] = l
	}
}
