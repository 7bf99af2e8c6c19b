package crypt

import (
	"bytes"
	"testing"
)

// TestSharedKeyStateMatchesSeal pins the split sealer's contract: two
// holders sharing one interned KeyState, each with its own Scratch and
// with seals and opens interleaved between them, produce exactly Seal's
// and Open's bytes at every payload length from 0 to 600.
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
	for n := 0; n <= len(pt); n++ {
		nonce := uint64(n)<<32 | 0x5eed
		want := Seal(k, nonce, aad, pt[:n])
		got1 := sc1.AppendSeal(st1, nil, nonce, aad, pt[:n])
		opened2, ok2 := sc2.AppendOpen(st2, nil, nonce, aad, got1)
		got2 := sc2.AppendSeal(st2, nil, nonce, aad, pt[:n])
		opened1, ok1 := sc1.AppendOpen(st1, nil, nonce, aad, want)
		if !bytes.Equal(got1, want) || !bytes.Equal(got2, want) {
			t.Fatalf("len %d: shared-state seal differs from Seal", n)
		}
		if !ok1 || !ok2 || !bytes.Equal(opened1, pt[:n]) || !bytes.Equal(opened2, pt[:n]) {
			t.Fatalf("len %d: shared-state open failed (ok %v/%v)", n, ok1, ok2)
		}
		if back, ok := Open(k, nonce, aad, got2); !ok || !bytes.Equal(back, pt[:n]) {
			t.Fatalf("len %d: Open rejects the shared-state seal", n)
		}
		tampered := append([]byte(nil), got1...)
		tampered[len(tampered)-1] ^= 1
		if _, ok := sc2.AppendOpen(st2, nil, nonce, aad, tampered); ok {
			t.Fatalf("len %d: shared-state open accepted a bad tag", n)
		}
	}
}

// TestKeyringAllocFree pins the steady state: sealing and opening through
// a handle and a warm Scratch, and acquiring a key the ring already
// holds, allocate nothing.
func TestKeyringAllocFree(t *testing.T) {
	r := NewKeyring()
	k := testKey(62)
	st := r.Acquire(k)
	var sc Scratch
	pt := []byte("0123456789abcdef0123456789abcdef012345")
	aad := []byte{3, 0, 0, 0, 7}
	sealBuf := make([]byte, 0, len(pt)+Overhead)
	openBuf := make([]byte, 0, len(pt))
	sealed := sc.AppendSeal(st, nil, 1, aad, pt)

	if n := testing.AllocsPerRun(200, func() {
		sealBuf = sc.AppendSeal(st, sealBuf[:0], 5, aad, pt)
	}); n != 0 {
		t.Errorf("AppendSeal on a handle allocates %v/op; want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		var ok bool
		if openBuf, ok = sc.AppendOpen(st, openBuf[:0], 1, aad, sealed); !ok {
			t.Fatal("open failed")
		}
	}); n != 0 {
		t.Errorf("AppendOpen on a handle allocates %v/op; want 0", n)
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

// BenchmarkSealerOpen290 opens a 290-byte sealed payload, the size of a
// full data-batch frame.
func BenchmarkSealerOpen290(b *testing.B) {
	s := NewSealer(testKey(66))
	aad := []byte{5, 0, 0, 0, 3}
	sealed := s.AppendSeal(nil, 7, aad, make([]byte, 290-Overhead))
	buf := make([]byte, 0, len(sealed))
	b.SetBytes(int64(len(sealed)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ok bool
		if buf, ok = s.AppendOpen(buf[:0], 7, aad, sealed); !ok {
			b.Fatal("open failed")
		}
	}
}
