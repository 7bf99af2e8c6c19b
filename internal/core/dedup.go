package core

import (
	"math/bits"

	"repro/internal/node"
)

// dedupKey names one reading network-wide: its originating node and that
// node's sequence number for it.
type dedupKey struct {
	origin node.ID
	seq    uint32
}

// dedupSet is a node's duplicate-suppression memory: exactly the last
// capacity distinct keys inserted, forgetting the oldest first. It is a
// FIFO ring of the keys plus an open-addressing hash table of ring
// indices, so the steady state — every insert past capacity evicts the
// oldest key — reuses the same two arrays and never allocates.
//
// The table uses linear probing with backward-shift deletion, so an
// eviction leaves no tombstone behind and probe runs never degrade under
// churn. Both arrays grow lazily with the ring, the table kept at least
// twice the ring's capacity (load ≤ 1/2); at a full cache of 1024 keys
// the set holds 8 KB of keys and 8 KB of table. Nothing iterates the
// set, so its layout cannot reach any output.
//
// The zero value is an empty set.
type dedupSet struct {
	// ring holds the inserted keys in insertion order until it reaches
	// capacity; from then on ring[pos] is the oldest key, the next to go.
	ring []dedupKey
	pos  int32
	// slots is the hash table, a power of two long: ring index + 1 of the
	// key stored there, or 0 for an empty slot.
	slots []int32
	// shift maps a 64-bit hash to a slot: slot = hash >> shift.
	shift uint8
}

// insert adds k if it is absent, evicting the oldest key when the set
// already holds capacity keys, and reports whether k was absent. capacity
// must be positive and the same on every call.
func (d *dedupSet) insert(k dedupKey, capacity int) bool {
	if d.has(k) {
		return false
	}
	var idx int32
	if len(d.ring) < capacity {
		if len(d.ring) == cap(d.ring) {
			d.grow(capacity)
		}
		idx = int32(len(d.ring))
		d.ring = append(d.ring, k)
	} else {
		idx = d.pos
		d.unlink(idx)
		d.ring[idx] = k
		if d.pos++; int(d.pos) == len(d.ring) {
			d.pos = 0
		}
	}
	i, _ := d.lookup(k)
	d.slots[i] = idx + 1
	return true
}

// has reports whether k is in the set.
func (d *dedupSet) has(k dedupKey) bool {
	if len(d.slots) == 0 {
		return false
	}
	_, ok := d.lookup(k)
	return ok
}

// home is k's preferred slot: a Fibonacci hash of the 64-bit key.
func (d *dedupSet) home(k dedupKey) uint32 {
	return uint32((uint64(k.origin)<<32 | uint64(k.seq)) * 0x9e3779b97f4a7c15 >> d.shift)
}

// lookup returns the slot holding k, or else the empty slot that ends
// k's probe run (the table is never full, so one exists).
func (d *dedupSet) lookup(k dedupKey) (uint32, bool) {
	mask := uint32(len(d.slots) - 1)
	for i := d.home(k); ; i = (i + 1) & mask {
		e := d.slots[i]
		if e == 0 {
			return i, false
		}
		if d.ring[e-1] == k {
			return i, true
		}
	}
}

// unlink removes ring index idx from the table. Each later entry of the
// probe run that may legally sit in the hole (its home is not inside
// the gap between the hole and itself) moves back into it, and the last
// hole is emptied, so the table stays exactly as if idx had never been
// inserted.
func (d *dedupSet) unlink(idx int32) {
	mask := uint32(len(d.slots) - 1)
	hole := d.home(d.ring[idx])
	for d.slots[hole] != idx+1 {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; d.slots[j] != 0; j = (j + 1) & mask {
		e := d.slots[j]
		if (j-d.home(d.ring[e-1]))&mask >= (j-hole)&mask {
			d.slots[hole] = e
			hole = j
		}
	}
	d.slots[hole] = 0
}

// grow doubles the ring's capacity (to at least 8, at most capacity) and
// rebuilds the table at twice that size. It runs only while the ring is
// still filling, so the ring is in insertion order and pos is 0.
func (d *dedupSet) grow(capacity int) {
	n := min(max(2*cap(d.ring), 8), capacity)
	ring := make([]dedupKey, len(d.ring), n)
	copy(ring, d.ring)
	d.ring = ring
	b := bits.Len(uint(2*n - 1)) // smallest b with 1<<b >= 2n
	d.slots = make([]int32, 1<<b)
	d.shift = uint8(64 - b)
	for idx, k := range d.ring {
		i, _ := d.lookup(k)
		d.slots[i] = int32(idx + 1)
	}
}
