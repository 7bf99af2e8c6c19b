package crypt

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// TestSharedKeyStateMatchesSeal pins the split sealer's contract: two
// holders sharing one interned KeyState, each with its own Scratch and
// with seals and opens interleaved between them, produce exactly Seal's
// and Open's bytes at every payload length from 0 to 600 (both sides of
// gcmCutoff) and at nonces 0, 2^64-1 and random.
func TestSharedKeyStateMatchesSeal(t *testing.T) {
	k := testKey(61)
	r := NewKeyring()
	st1, st2 := r.Acquire(k), r.Acquire(k)
	if st1 != st2 {
		t.Fatal("two acquires of one key returned different states")
	}
	var sc1, sc2 Scratch
	aad := []byte{2, 0, 0, 0, 9}
	pt := make([]byte, 600)
	for i := range pt {
		pt[i] = byte(i*131 + 17)
	}
	rng := xrand.New(61)
	for n := 0; n <= len(pt); n++ {
		for _, nonce := range testNonces(rng) {
			if err := sharedStateRoundTrip(k, st1, st2, &sc1, &sc2, nonce, aad, pt[:n]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sharedStateRoundTrip seals and opens pt through two Scratches over
// states st1 and st2 of key k, interleaved, and checks every output
// against Seal and Open. It returns the first mismatch, or nil.
func sharedStateRoundTrip(k Key, st1, st2 *KeyState, sc1, sc2 *Scratch, nonce uint64, aad, pt []byte) error {
	n := len(pt)
	want := Seal(k, nonce, aad, pt)
	got1 := sc1.AppendSeal(st1, nil, nonce, aad, pt)
	opened2, ok2 := sc2.AppendOpen(st2, nil, nonce, aad, got1)
	got2 := sc2.AppendSeal(st2, nil, nonce, aad, pt)
	opened1, ok1 := sc1.AppendOpen(st1, nil, nonce, aad, want)
	if !bytes.Equal(got1, want) || !bytes.Equal(got2, want) {
		return fmt.Errorf("len %d nonce %#x: shared-state seal differs from Seal", n, nonce)
	}
	if !ok1 || !ok2 || !bytes.Equal(opened1, pt) || !bytes.Equal(opened2, pt) {
		return fmt.Errorf("len %d nonce %#x: shared-state open failed (ok %v/%v)", n, nonce, ok1, ok2)
	}
	if back, ok := Open(k, nonce, aad, got2); !ok || !bytes.Equal(back, pt) {
		return fmt.Errorf("len %d nonce %#x: Open rejects the shared-state seal", n, nonce)
	}
	tampered := append([]byte(nil), got1...)
	tampered[len(tampered)-1] ^= 1
	if _, ok := sc2.AppendOpen(st2, nil, nonce, aad, tampered); ok {
		return fmt.Errorf("len %d nonce %#x: shared-state open accepted a bad tag", n, nonce)
	}
	return nil
}

// TestSharedKeyStateConcurrent seals and opens long messages (past
// gcmCutoff, so the first use builds the key's lazy GCM state) under one
// shared KeyState from many goroutines at once, each with its own
// Scratch. Run under -race it checks that the lazy state is built
// race-free; every output must still equal Seal's.
func TestSharedKeyStateConcurrent(t *testing.T) {
	k := testKey(67)
	r := NewKeyring()
	st := r.Acquire(k)
	aad := []byte{2, 0, 0, 0, 4}
	pt := make([]byte, 400)
	for i := range pt {
		pt[i] = byte(i*7 + 3)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc1, sc2 Scratch
			for n := 290; n <= len(pt); n += 11 {
				if err := sharedStateRoundTrip(k, st, st, &sc1, &sc2, uint64(w)<<32|uint64(n), aad, pt[:n]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeyringAllocFree pins the steady state: sealing and opening through
// a handle and a warm Scratch, at 38 and 290 bytes (both sides of
// gcmCutoff), and acquiring a key the ring already holds, allocate
// nothing.
func TestKeyringAllocFree(t *testing.T) {
	r := NewKeyring()
	k := testKey(62)
	st := r.Acquire(k)
	var sc Scratch
	aad := []byte{3, 0, 0, 0, 7}
	for _, size := range []int{38, 290} {
		pt := bytes.Repeat([]byte("0123456789abcdef"), 20)[:size]
		sealBuf := make([]byte, 0, len(pt)+Overhead)
		openBuf := make([]byte, 0, len(pt))
		sealed := sc.AppendSeal(st, nil, 1, aad, pt)

		if n := testing.AllocsPerRun(200, func() {
			sealBuf = sc.AppendSeal(st, sealBuf[:0], 5, aad, pt)
		}); n != 0 {
			t.Errorf("%d B: AppendSeal on a handle allocates %v/op; want 0", size, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			var ok bool
			if openBuf, ok = sc.AppendOpen(st, openBuf[:0], 1, aad, sealed); !ok {
				t.Fatal("open failed")
			}
		}); n != 0 {
			t.Errorf("%d B: AppendOpen on a handle allocates %v/op; want 0", size, n)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if r.Acquire(k) != st {
			t.Fatal("acquire hit returned another state")
		}
		r.Release(k)
	}); n != 0 {
		t.Errorf("Keyring.Acquire hit allocates %v/op; want 0", n)
	}
}

// TestKeyringRefcount checks the entry lifecycle: references count up and
// down per key, the last Release removes the entry, a re-acquire builds a
// fresh one, and releasing an unheld key panics.
func TestKeyringRefcount(t *testing.T) {
	r := NewKeyring()
	a, b := testKey(63), testKey(64)
	r.Acquire(a)
	r.Acquire(a)
	r.Acquire(b)
	if r.Len() != 2 || r.Refs(a) != 2 || r.Refs(b) != 1 {
		t.Fatalf("after 3 acquires: len %d refs(a) %d refs(b) %d", r.Len(), r.Refs(a), r.Refs(b))
	}
	r.Release(a)
	if r.Len() != 2 || r.Refs(a) != 1 {
		t.Fatalf("first release of a removed too much: len %d refs %d", r.Len(), r.Refs(a))
	}
	r.Release(a)
	if r.Len() != 1 || r.Refs(a) != 0 {
		t.Fatalf("last release of a left its entry: len %d refs %d", r.Len(), r.Refs(a))
	}
	r.Release(b)
	if r.Len() != 0 {
		t.Fatalf("ring not empty after every release: len %d", r.Len())
	}
	if st := r.Acquire(a); r.Refs(a) != 1 || st == nil {
		t.Fatal("re-acquire after removal did not build a fresh entry")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing an unheld key did not panic")
		}
	}()
	r.Release(b)
}

func BenchmarkKeyringAcquire(b *testing.B) {
	r := NewKeyring()
	k := testKey(65)
	r.Acquire(k) // held throughout, so every Acquire below is a hit
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Acquire(k)
		r.Release(k)
	}
}

// benchSealerOpen opens a size-byte sealed payload.
func benchSealerOpen(b *testing.B, size int) {
	s := NewSealer(testKey(66))
	aad := []byte{5, 0, 0, 0, 3}
	sealed := s.AppendSeal(nil, 7, aad, make([]byte, size-Overhead))
	var buf []byte
	b.SetBytes(int64(len(sealed)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ok bool
		if buf, ok = s.AppendOpen(buf[:0], 7, aad, sealed); !ok {
			b.Fatal("open failed")
		}
	}
}

// BenchmarkSealerOpen64, 290 and 1024 open sealed payloads below, just
// past and far past gcmCutoff; 290 bytes is a full data-batch frame.
// Together they re-measure where the GCM keystream path starts to pay.
func BenchmarkSealerOpen64(b *testing.B)   { benchSealerOpen(b, 64) }
func BenchmarkSealerOpen290(b *testing.B)  { benchSealerOpen(b, 290) }
func BenchmarkSealerOpen1024(b *testing.B) { benchSealerOpen(b, 1024) }
