package crypt

import (
	"bytes"
	"testing"

	"repro/internal/xrand"
)

// testNonces returns the nonces the byte-equivalence tests run at every
// message size: 0, the largest (2^64-1) and one drawn from rng.
func testNonces(rng *xrand.RNG) [3]uint64 {
	return [3]uint64{0, ^uint64(0), rng.Uint64()}
}

// TestSealerMatchesSeal pins the byte-equivalence contract: for the same
// (key, nonce, aad, plaintext), AppendSeal produces exactly Seal's output
// and AppendOpen exactly Open's, at every message size from 0 to 600 B —
// every CTR block boundary on both sides of gcmCutoff — and at nonces 0,
// 2^64-1 and random.
func TestSealerMatchesSeal(t *testing.T) {
	rng := xrand.New(0xC0FFEE)
	for size := 0; size <= 600; size++ {
		var k Key
		for i := range k {
			k[i] = byte(rng.Uint64n(256))
		}
		s := NewSealer(k)
		pt := make([]byte, size)
		for i := range pt {
			pt[i] = byte(rng.Uint64n(256))
		}
		aad := make([]byte, rng.Uint64n(9))
		for i := range aad {
			aad[i] = byte(rng.Uint64n(256))
		}
		for _, nonce := range testNonces(rng) {
			want := Seal(k, nonce, aad, pt)
			got := s.AppendSeal(nil, nonce, aad, pt)
			if !bytes.Equal(got, want) {
				t.Fatalf("size %d nonce %#x: AppendSeal != Seal\n got %x\nwant %x", size, nonce, got, want)
			}

			// Open the one-shot output with the Sealer and vice versa.
			opened, ok := s.AppendOpen(nil, nonce, aad, want)
			if !ok || !bytes.Equal(opened, pt) {
				t.Fatalf("size %d nonce %#x: AppendOpen(Seal output) = %x, %v; want %x, true", size, nonce, opened, ok, pt)
			}
			opened2, ok := Open(k, nonce, aad, got)
			if !ok || !bytes.Equal(opened2, pt) {
				t.Fatalf("size %d nonce %#x: Open(AppendSeal output) failed", size, nonce)
			}
		}
	}
}

// TestSealerAppendSemantics checks that both Append methods honor the
// append contract: existing dst bytes are preserved and the result is
// appended after them.
func TestSealerAppendSemantics(t *testing.T) {
	k := KeyFromBytes([]byte("append-semantics"))
	s := NewSealer(k)
	pt := []byte("the quick brown fox")
	aad := []byte{7}

	prefix := []byte("HDR:")
	out := s.AppendSeal(append([]byte(nil), prefix...), 42, aad, pt)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("AppendSeal clobbered prefix: %q", out)
	}
	if want := Seal(k, 42, aad, pt); !bytes.Equal(out[len(prefix):], want) {
		t.Fatalf("AppendSeal after prefix diverges from Seal")
	}

	opened, ok := s.AppendOpen(append([]byte(nil), prefix...), 42, aad, out[len(prefix):])
	if !ok || !bytes.Equal(opened, append(append([]byte(nil), prefix...), pt...)) {
		t.Fatalf("AppendOpen append semantics broken: %q ok=%v", opened, ok)
	}
}

// TestSealerRejects checks the Sealer's failure paths mirror Open's: a
// flipped bit anywhere (ciphertext, tag, aad, nonce), a truncated input,
// or the wrong key must fail without modifying dst.
func TestSealerRejects(t *testing.T) {
	k := KeyFromBytes([]byte("sealer-rejects!!"))
	s := NewSealer(k)
	pt := []byte("payload payload payload")
	aad := []byte{1, 2, 3}
	sealed := s.AppendSeal(nil, 9, aad, pt)

	for i := range sealed {
		tampered := append([]byte(nil), sealed...)
		tampered[i] ^= 0x40
		if _, ok := s.AppendOpen(nil, 9, aad, tampered); ok {
			t.Fatalf("accepted tampered byte %d", i)
		}
	}
	if _, ok := s.AppendOpen(nil, 10, aad, sealed); ok {
		t.Fatal("accepted wrong nonce")
	}
	if _, ok := s.AppendOpen(nil, 9, []byte{1, 2}, sealed); ok {
		t.Fatal("accepted wrong aad")
	}
	if _, ok := s.AppendOpen(nil, 9, aad, sealed[:Overhead-1]); ok {
		t.Fatal("accepted truncated input")
	}
	if _, ok := NewSealer(KeyFromBytes([]byte("other"))).AppendOpen(nil, 9, aad, sealed); ok {
		t.Fatal("accepted wrong key")
	}
	dst := []byte("keep")
	got, ok := s.AppendOpen(dst, 99, aad, sealed)
	if ok || !bytes.Equal(got, dst) {
		t.Fatalf("failed AppendOpen modified dst: %q ok=%v", got, ok)
	}
}

// TestSealerAllocFree is the allocation regression test: with warm
// scratch, seal and open must not allocate at all, at a typical 38-byte
// frame body and at 290 bytes, past gcmCutoff.
func TestSealerAllocFree(t *testing.T) {
	k := KeyFromBytes([]byte("alloc-free-seals"))
	s := NewSealer(k)
	aad := []byte{3, 0, 0, 0, 7}
	for _, size := range []int{38, 290} {
		pt := bytes.Repeat([]byte("0123456789abcdef"), 20)[:size]
		sealBuf := make([]byte, 0, len(pt)+Overhead)
		openBuf := make([]byte, 0, len(pt))
		sealed := s.AppendSeal(nil, 1, aad, pt)

		if n := testing.AllocsPerRun(200, func() {
			sealBuf = s.AppendSeal(sealBuf[:0], 5, aad, pt)
		}); n != 0 {
			t.Errorf("%d B: AppendSeal allocates %v/op; want 0", size, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			var ok bool
			openBuf, ok = s.AppendOpen(openBuf[:0], 1, aad, sealed)
			if !ok {
				t.Fatal("open failed")
			}
		}); n != 0 {
			t.Errorf("%d B: AppendOpen allocates %v/op; want 0", size, n)
		}
	}
}

// TestSealOpenAllocBudget pins the one-shot path's allocation count so the
// baseline the Sealer is measured against cannot silently regress.
func TestSealOpenAllocBudget(t *testing.T) {
	k := KeyFromBytes([]byte("one-shot-budget!"))
	pt := []byte("0123456789abcdef0123456789abcdef012345")
	aad := []byte{3, 0, 0, 0, 7}
	sealed := Seal(k, 1, aad, pt)

	// The one-shot functions re-derive both subkeys and rebuild all
	// cipher state per call; ~30 allocations each today. The budget is
	// deliberately loose — it exists to catch order-of-magnitude rot and
	// to document why the Sealer path matters.
	if n := testing.AllocsPerRun(100, func() { _ = Seal(k, 1, aad, pt) }); n > 40 {
		t.Errorf("Seal allocates %v/op; budget 40", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := Open(k, 1, aad, sealed); !ok {
			t.Fatal("open failed")
		}
	}); n > 40 {
		t.Errorf("Open allocates %v/op; budget 40", n)
	}
}
