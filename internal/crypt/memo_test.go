package crypt

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/xrand"
)

// memoFrame is one sealed frame of a recorded mix.
type memoFrame struct {
	st          *KeyState
	nonce       uint64
	aad, sealed []byte
}

// sameSlot returns a nonce other than nonce that indexes the same memo
// slot.
func sameSlot(nonce uint64) uint64 {
	var m memo
	m.slots = make([]memoSlot, memoSlots)
	want := m.slot(nonce)
	for n := nonce + 1; ; n++ {
		if m.slot(n) == want {
			return n
		}
	}
}

// TestSharedScratchMatchesZeroValue is the differential test: one
// recorded mix of seals and opens — three keys, payloads from 0 to 600
// bytes (both sides of gcmCutoff and of the slot capacity), repeated
// opens of each frame, opens under the wrong key, with a flipped byte,
// truncated, and frames that evict each other from one slot — gives the
// same bytes and verdicts from a table-backed Scratch as from a
// zero-value one, and the table answers some of it.
func TestSharedScratchMatchesZeroValue(t *testing.T) {
	r := NewKeyring()
	keys := []*KeyState{r.Acquire(testKey(70)), r.Acquire(testKey(71)), r.Acquire(testKey(72))}
	rng := xrand.New(70)
	shared := NewSharedScratch()
	var plain Scratch

	var frames []memoFrame
	for i := 0; i < 400; i++ {
		st := keys[rng.Uint64n(uint64(len(keys)))]
		pt := make([]byte, rng.Uint64n(601))
		for j := range pt {
			pt[j] = byte(rng.Uint64())
		}
		aad := []byte{byte(i), byte(i >> 8), 0, 0, byte(rng.Uint64())}
		nonce := uint64(rng.Uint64n(64))<<32 | uint64(i)
		if i%10 == 9 {
			nonce = sameSlot(frames[i-1].nonce)
		}
		a := shared.AppendSeal(st, nil, nonce, aad, pt)
		b := plain.AppendSeal(st, nil, nonce, aad, pt)
		if !bytes.Equal(a, b) {
			t.Fatalf("frame %d: shared seal differs from the zero-value seal", i)
		}
		frames = append(frames, memoFrame{st, nonce, aad, a})
	}

	open := func(step string, st *KeyState, nonce uint64, aad, sealed []byte) {
		t.Helper()
		prefix := []byte("dst:")
		a, okA := shared.AppendOpen(st, append([]byte(nil), prefix...), nonce, aad, sealed)
		b, okB := plain.AppendOpen(st, append([]byte(nil), prefix...), nonce, aad, sealed)
		if okA != okB || !bytes.Equal(a, b) {
			t.Fatalf("%s: shared open = %x, %v; zero-value open = %x, %v", step, a, okA, b, okB)
		}
	}
	for round := 0; round < 3; round++ {
		for i, f := range frames {
			step := fmt.Sprintf("round %d frame %d", round, i)
			open(step, f.st, f.nonce, f.aad, f.sealed)
			open(step+" wrong key", keys[(slices.Index(keys, f.st)+1)%len(keys)], f.nonce, f.aad, f.sealed)
			bad := append([]byte(nil), f.sealed...)
			bad[rng.Uint64n(uint64(len(bad)))] ^= 1 << rng.Uint64n(8)
			open(step+" flipped", f.st, f.nonce, f.aad, bad)
			open(step+" truncated", f.st, f.nonce, f.aad, f.sealed[:len(f.sealed)-1])
			open(step+" wrong nonce", f.st, f.nonce^1, f.aad, f.sealed)
		}
	}
	if hits, misses := shared.MemoStats(); hits == 0 || misses == 0 {
		t.Fatalf("memo hits %d misses %d; the mix should exercise both", hits, misses)
	}
	if hits, misses := plain.MemoStats(); hits != 0 || misses != 0 {
		t.Fatalf("zero-value Scratch reports memo hits %d misses %d", hits, misses)
	}
}

// TestTamperAfterCachedSuccess flips, one at a time, every byte of the
// nonce, the aad, the ciphertext and the tag of a frame the table holds:
// each variant must fail, and the genuine frame must still be a hit.
func TestTamperAfterCachedSuccess(t *testing.T) {
	st := NewKeyring().Acquire(testKey(73))
	sc := NewSharedScratch()
	const nonce = 0x0102030405060708
	aad := []byte{3, 0, 0, 0, 9}
	pt := []byte("a reading that every neighbour opens")
	sealed := sc.AppendSeal(st, nil, nonce, aad, pt)
	hit := func(step string) {
		t.Helper()
		h0, _ := sc.MemoStats()
		got, ok := sc.AppendOpen(st, nil, nonce, aad, sealed)
		if h1, _ := sc.MemoStats(); !ok || !bytes.Equal(got, pt) || h1 != h0+1 {
			t.Fatalf("%s: genuine frame = %q, %v, hit %v; want the plaintext from the table", step, got, ok, h1 == h0+1)
		}
	}
	hit("after seal")
	for i := 0; i < 8; i++ {
		if _, ok := sc.AppendOpen(st, nil, nonce^(0xff<<(8*i)), aad, sealed); ok {
			t.Fatalf("accepted nonce byte %d flipped", i)
		}
		hit(fmt.Sprintf("nonce byte %d", i))
	}
	for i := range aad {
		bad := append([]byte(nil), aad...)
		bad[i] ^= 0xff
		if _, ok := sc.AppendOpen(st, nil, nonce, bad, sealed); ok {
			t.Fatalf("accepted aad byte %d flipped", i)
		}
		hit(fmt.Sprintf("aad byte %d", i))
	}
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0xff
		if _, ok := sc.AppendOpen(st, nil, nonce, aad, bad); ok {
			part := "ciphertext"
			if i >= len(pt) {
				part = "tag"
			}
			t.Fatalf("accepted %s byte %d flipped", part, i)
		}
		hit(fmt.Sprintf("sealed byte %d", i))
	}
}

// TestMemoCrossKey checks that a slot answers only the KeyState that
// filled it: the same bytes under another key fail; under another state
// of the same key (a second ring, or the key acquired again after its
// last release, which gets a new serial) they verify in full and miss.
func TestMemoCrossKey(t *testing.T) {
	k := testKey(74)
	r := NewKeyring()
	st := r.Acquire(k)
	sc := NewSharedScratch()
	aad := []byte{2, 0, 0, 0, 1}
	pt := []byte("cross-key")
	sealed := sc.AppendSeal(st, nil, 5, aad, pt)

	if _, ok := sc.AppendOpen(NewKeyring().Acquire(testKey(75)), nil, 5, aad, sealed); ok {
		t.Fatal("another key opened the frame")
	}
	openMiss := func(step string, other *KeyState) {
		t.Helper()
		if other.serial == st.serial {
			t.Fatalf("%s: state shares serial %d", step, st.serial)
		}
		h0, m0 := sc.MemoStats()
		got, ok := sc.AppendOpen(other, nil, 5, aad, sealed)
		h1, m1 := sc.MemoStats()
		if !ok || !bytes.Equal(got, pt) || h1 != h0 || m1 != m0+1 {
			t.Fatalf("%s: open = %q, %v, hits +%d misses +%d; want the plaintext from a miss", step, got, ok, h1-h0, m1-m0)
		}
	}
	openMiss("second ring", NewKeyring().Acquire(k))
	// The miss above refilled the slot for the second ring's state;
	// seal again so the slot is st's before it is released.
	sc.AppendSeal(st, nil, 5, aad, pt)
	r.Release(k)
	openMiss("re-acquired", r.Acquire(k))
}

// TestMemoSlotOverwrite checks that a frame for an occupied slot
// replaces its occupant: the newer frame hits, the evicted one misses
// and still opens.
func TestMemoSlotOverwrite(t *testing.T) {
	st := NewKeyring().Acquire(testKey(76))
	sc := NewSharedScratch()
	aad := []byte{2, 0, 0, 0, 2}
	n1 := uint64(9)
	n2 := sameSlot(n1)
	s1 := sc.AppendSeal(st, nil, n1, aad, []byte("first"))
	s2 := sc.AppendSeal(st, nil, n2, aad, []byte("second"))
	for _, c := range []struct {
		nonce  uint64
		sealed []byte
		want   string
		hit    bool
	}{
		{n2, s2, "second", true},
		{n1, s1, "first", false}, // evicted by n2; refills the slot
		{n1, s1, "first", true},
		{n2, s2, "second", false},
	} {
		h0, _ := sc.MemoStats()
		got, ok := sc.AppendOpen(st, nil, c.nonce, aad, c.sealed)
		h1, _ := sc.MemoStats()
		if !ok || string(got) != c.want || (h1 == h0+1) != c.hit {
			t.Fatalf("nonce %d: open = %q, %v, hit %v; want %q, hit %v", c.nonce, got, ok, h1 == h0+1, c.want, c.hit)
		}
	}
	// A frame too long for a slot is not remembered and leaves the
	// slot's occupant in place.
	long := sc.AppendSeal(st, nil, n1, aad, make([]byte, memoSlotBytes))
	if _, ok := sc.AppendOpen(st, nil, n1, aad, long); !ok {
		t.Fatal("long frame failed to open")
	}
	h0, _ := sc.MemoStats()
	if _, ok := sc.AppendOpen(st, nil, n2, aad, s2); !ok {
		t.Fatal("occupant failed to open")
	}
	if h1, _ := sc.MemoStats(); h1 != h0+1 {
		t.Fatal("a frame too long for a slot evicted its occupant")
	}
}

// TestMemoInPlace seals and opens in place, dst over the input, as
// xorKeyStream allows: the table must remember the frame's real sealed
// bytes and plaintext, not what the in-place call left in the buffer.
func TestMemoInPlace(t *testing.T) {
	st := NewKeyring().Acquire(testKey(80))
	aad := []byte{2, 0, 0, 0, 4}
	for _, size := range []int{38, 290} {
		pt := bytes.Repeat([]byte("in place "), 40)[:size]
		want := Seal(testKey(80), 3, aad, pt)

		sc := NewSharedScratch()
		buf := make([]byte, size, size+Overhead+gcmTagSize)
		copy(buf, pt)
		if got := sc.AppendSeal(st, buf[:0], 3, aad, buf); !bytes.Equal(got, want) {
			t.Fatalf("%d B: in-place seal = %x, want %x", size, got, want)
		}
		if got, ok := sc.AppendOpen(st, nil, 3, aad, want); !ok || !bytes.Equal(got, pt) {
			t.Fatalf("%d B: open after an in-place seal = %q, %v", size, got, ok)
		}

		sc = NewSharedScratch()
		buf = append(buf[:0], want...)
		if got, ok := sc.AppendOpen(st, buf[:0], 3, aad, buf); !ok || !bytes.Equal(got, pt) {
			t.Fatalf("%d B: in-place open = %q, %v", size, got, ok)
		}
		if _, ok := sc.AppendOpen(st, nil, 3, aad, buf); ok {
			t.Fatalf("%d B: the buffer an in-place open overwrote opens", size)
		}
		h0, _ := sc.MemoStats()
		if got, ok := sc.AppendOpen(st, nil, 3, aad, want); !ok || !bytes.Equal(got, pt) {
			t.Fatalf("%d B: open after an in-place open = %q, %v", size, got, ok)
		}
		if h1, _ := sc.MemoStats(); h1 != h0+1 {
			t.Fatalf("%d B: the frame an in-place open verified is not in the table", size)
		}
	}
}

// TestMemoAllocFree pins the steady state of a table-backed Scratch:
// a hit, a miss that refills the slot, a failed open, and a seal
// allocate nothing, at 38 and 290 bytes.
func TestMemoAllocFree(t *testing.T) {
	st := NewKeyring().Acquire(testKey(77))
	sc := NewSharedScratch()
	aad := []byte{3, 0, 0, 0, 7}
	n1 := uint64(1)
	n2 := sameSlot(n1)
	for _, size := range []int{38, 290} {
		pt := bytes.Repeat([]byte("0123456789abcdef"), 20)[:size]
		s1 := sc.AppendSeal(st, nil, n1, aad, pt)
		s2 := sc.AppendSeal(st, nil, n2, aad, pt)
		bad := append([]byte(nil), s1...)
		bad[0] ^= 1
		buf := make([]byte, 0, len(pt)+Overhead+gcmTagSize)
		cases := []struct {
			name string
			fn   func()
		}{
			{"hit", func() { buf, _ = sc.AppendOpen(st, buf[:0], n2, aad, s2) }},
			{"miss", func() {
				buf, _ = sc.AppendOpen(st, buf[:0], n1, aad, s1)
				buf, _ = sc.AppendOpen(st, buf[:0], n2, aad, s2)
			}},
			{"failed open", func() { buf, _ = sc.AppendOpen(st, buf[:0], n1, aad, bad) }},
			{"seal", func() { buf = sc.AppendSeal(st, buf[:0], n1, aad, pt) }},
		}
		for _, c := range cases {
			if n := testing.AllocsPerRun(200, c.fn); n != 0 {
				t.Errorf("%d B %s: allocates %v/op; want 0", size, c.name, n)
			}
		}
		sc.AppendOpen(st, nil, n2, aad, s2) // the seal case left n1 in the slot
		h0, m0 := sc.MemoStats()
		cases[1].fn()
		if h1, m1 := sc.MemoStats(); h1 != h0 || m1 != m0+2 {
			t.Fatalf("%d B: the miss case hit the table", size)
		}
	}
}

// TestMemoReleasedKeyStateCollectable checks that the table keeps no
// released key alive: after a state's last ring reference goes, with
// its frames still in a table, the state is garbage-collected.
func TestMemoReleasedKeyStateCollectable(t *testing.T) {
	k := testKey(78)
	r := NewKeyring()
	sc := NewSharedScratch()
	collected := make(chan struct{})
	func() {
		st := r.Acquire(k)
		aad := []byte{2, 0, 0, 0, 3}
		sealed := sc.AppendSeal(st, nil, 11, aad, make([]byte, 300))
		if _, ok := sc.AppendOpen(st, nil, 11, aad, sealed); !ok {
			t.Fatal("open failed")
		}
		// st is the first field of its ring entry, so it starts the
		// allocation a finalizer can watch.
		runtime.SetFinalizer(st, func(*KeyState) { close(collected) })
		r.Release(k)
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(sc)
			return
		case <-deadline:
			t.Fatal("a released KeyState was not collected while its frames sat in a memo table")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// BenchmarkOpenShared opens a 64- and a 290-byte sealed payload that a
// table-backed Scratch holds: the cost every neighbour after the first
// pays for a broadcast (compare BenchmarkSealerOpen64 and 290).
func BenchmarkOpenShared(b *testing.B) {
	for _, size := range []int{64, 290} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			st := NewKeyring().Acquire(testKey(79))
			sc := NewSharedScratch()
			aad := []byte{5, 0, 0, 0, 3}
			sealed := sc.AppendSeal(st, nil, 7, aad, make([]byte, size-Overhead))
			var buf []byte
			b.SetBytes(int64(len(sealed)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ok bool
				if buf, ok = sc.AppendOpen(st, buf[:0], 7, aad, sealed); !ok {
					b.Fatal("open failed")
				}
			}
		})
	}
}
