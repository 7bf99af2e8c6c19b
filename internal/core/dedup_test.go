package core

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// refDedup is the map-plus-FIFO duplicate cache dedupSet replaced, kept
// as the reference its membership must equal: the last capacity distinct
// keys inserted.
type refDedup struct {
	m        map[dedupKey]struct{}
	fifo     []dedupKey
	pos      int
	capacity int
}

func (r *refDedup) insert(k dedupKey) bool {
	if _, ok := r.m[k]; ok {
		return false
	}
	if len(r.fifo) < r.capacity {
		r.fifo = append(r.fifo, k)
	} else {
		delete(r.m, r.fifo[r.pos])
		r.fifo[r.pos] = k
		r.pos = (r.pos + 1) % r.capacity
	}
	r.m[k] = struct{}{}
	return true
}

// TestDedupSetMatchesReference drives dedupSet and the map+FIFO reference
// with the same random key stream — few origins and a seq range a few
// times the capacity, so most inserts evict and many repeat a key that
// is, or was just, held — and checks that every insert agrees, that
// interleaved has queries agree, and periodically that every key the
// reference holds is in the set.
//
// The collision streams draw most keys from groups that share one full
// hash fingerprint, and so one home slot at every table size, while
// differing in (origin, seq): only the ring comparison tells them apart.
func TestDedupSetMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 64, 1024} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := xrand.New(uint64(capacity))
			origins := []uint32{0, 1, 7, 1 << 31, ^uint32(0)}
			checkDedupAgainstReference(t, capacity, func() dedupKey {
				return dedupKey{
					origin: origins[rng.Uint64n(uint64(len(origins)))],
					seq:    uint32(rng.Uint64n(uint64(3*capacity + 2))),
				}
			})
		})
	}
	for _, capacity := range []int{3, 64, 1024} {
		t.Run(fmt.Sprintf("collisions/%d", capacity), func(t *testing.T) {
			rng := xrand.New(uint64(capacity) + 99)
			// Groups of 24 keys sharing a fingerprint; the groups
			// together hold about twice the capacity, so each group's
			// keys are in the set together and evict one another.
			groups := make([][]dedupKey, max(2*capacity/24, 2))
			for g := range groups {
				groups[g] = fingerprintTwins(dedupKey{origin: uint32(rng.Uint64()), seq: uint32(rng.Uint64())}, 24)
			}
			checkDedupAgainstReference(t, capacity, func() dedupKey {
				if rng.Uint64n(8) == 0 {
					return dedupKey{origin: uint32(rng.Uint64n(4)), seq: uint32(rng.Uint64n(uint64(capacity)))}
				}
				g := groups[rng.Uint64n(uint64(len(groups)))]
				return g[rng.Uint64n(uint64(len(g)))]
			})
		})
	}
}

// fingerprintTwins returns k and n-1 other keys with k's fingerprint.
// The hash multiplies the packed key by an odd constant, a bijection on
// 64 bits, so each twin is the inverse image of k's hash with some of the
// low bits below the fingerprint changed.
func fingerprintTwins(k dedupKey, n int) []dedupKey {
	const mul = 0x9e3779b97f4a7c15
	inv := uint64(mul) // Newton's iteration for the inverse mod 2^64
	for range 5 {
		inv *= 2 - mul*inv
	}
	h := k.u64() * mul
	out := []dedupKey{k}
	for i := uint64(1); len(out) < n; i++ {
		u := (h ^ i<<7) * inv
		twin := dedupKey{origin: uint32(u >> 32), seq: uint32(u)}
		if dedupFP(twin) != dedupFP(k) || twin == k {
			panic("fingerprintTwins: not a twin")
		}
		out = append(out, twin)
	}
	return out
}

// checkDedupAgainstReference runs a stream of draw()n keys through a
// dedupSet and the reference, comparing every insert and an interleaved
// has query, and periodically that the set holds every key the
// reference does.
func checkDedupAgainstReference(t *testing.T, capacity int, draw func() dedupKey) {
	t.Helper()
	var d dedupSet
	ref := refDedup{m: make(map[dedupKey]struct{}), capacity: capacity}
	for op := 0; op < max(200*capacity, 20000); op++ {
		k := draw()
		if got, want := d.insert(k, capacity), ref.insert(k); got != want {
			t.Fatalf("op %d: insert(%v) = %v, reference %v", op, k, got, want)
		}
		q := draw()
		_, want := ref.m[q]
		if got := d.has(q); got != want {
			t.Fatalf("op %d: has(%v) = %v, reference %v", op, q, got, want)
		}
		if op%997 == 0 {
			for _, held := range ref.fifo {
				if !d.has(held) {
					t.Fatalf("op %d: set lost %v", op, held)
				}
			}
		}
	}
	if len(d.ring) != len(ref.fifo) {
		t.Fatalf("set holds %d keys, reference %d", len(d.ring), len(ref.fifo))
	}
}

// TestDedupSetSequentialChurn runs the protocol's own access pattern:
// each origin's seqs count up, so once full every insert evicts, and the
// keys a capacity back must already be forgotten.
func TestDedupSetSequentialChurn(t *testing.T) {
	const capacity = 64
	var d dedupSet
	for seq := uint32(0); seq < 50*capacity; seq++ {
		for origin := uint32(1); origin <= 3; origin++ {
			if !d.insert(dedupKey{origin, seq}, capacity) {
				t.Fatalf("fresh (%d, %d) reported as held", origin, seq)
			}
		}
		// 3 inserts per seq: the last 64 keys are 21 whole seqs and the
		// last-inserted key (origin 3) of the seq before them.
		for back := uint32(0); back <= 20 && back <= seq; back++ {
			for origin := uint32(1); origin <= 3; origin++ {
				if !d.has(dedupKey{origin, seq - back}) {
					t.Fatalf("(%d, %d) forgotten at seq %d", origin, seq-back, seq)
				}
			}
		}
		if seq >= 21 && (!d.has(dedupKey{3, seq - 21}) || d.has(dedupKey{2, seq - 21})) {
			t.Fatalf("seq %d: wrong boundary at seq %d", seq, seq-21)
		}
	}
	if len(d.ring) != capacity || cap(d.ring) != capacity || len(d.slots) != 2*capacity {
		t.Fatalf("full set: ring len %d cap %d, table %d; want %d, %d, %d",
			len(d.ring), cap(d.ring), len(d.slots), capacity, capacity, 2*capacity)
	}
}

// TestDedupSetAllocFree pins the steady state: once the set holds
// capacity keys, inserts (each evicting the oldest) and hits allocate
// nothing.
func TestDedupSetAllocFree(t *testing.T) {
	const capacity = 1024
	var d dedupSet
	seq := uint32(0)
	for ; seq < 2*capacity; seq++ {
		d.insert(dedupKey{5, seq}, capacity)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if !d.insert(dedupKey{5, seq}, capacity) || d.insert(dedupKey{5, seq}, capacity) {
			t.Fatal("insert-if-absent misreported")
		}
		seq++
	}); n != 0 {
		t.Fatalf("full dedupSet allocates %v/op; want 0", n)
	}
}

// BenchmarkDedupSet measures churn at capacity: each op inserts a fresh
// key (a miss that evicts the oldest) and re-inserts a recent one (a hit),
// the pattern an overheard data stream produces.
func BenchmarkDedupSet(b *testing.B) {
	const capacity = 1024
	var d dedupSet
	var seq uint32
	key := func(s uint32) dedupKey { return dedupKey{origin: s % 61, seq: s / 61} }
	for ; seq < capacity; seq++ {
		d.insert(key(seq), capacity)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.insert(key(seq), capacity)
		d.insert(key(seq-capacity/2), capacity)
		seq++
	}
}
