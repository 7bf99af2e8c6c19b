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

// u64 packs k as origin<<32 | seq, so numeric order is (origin, seq)
// order.
func (k dedupKey) u64() uint64 { return uint64(k.origin)<<32 | uint64(k.seq) }

// The table's slots pack two fields into 32 bits: the ring index + 1 of
// the key stored there in the low dedupIdxBits, and the key's
// fingerprint, the top dedupFPBits of its 64-bit hash, above them.
const (
	dedupIdxBits = 11
	dedupIdxMask = 1<<dedupIdxBits - 1
	dedupFPBits  = 32 - dedupIdxBits
)

// Every ring index + 1 must fit dedupIdxBits: this fails to compile
// unless dedupCapacity < 1<<dedupIdxBits. The table (at most
// 2*dedupCapacity slots) then needs at most dedupIdxBits+1 home bits,
// which the fingerprint's dedupFPBits cover.
const _ = uint(dedupIdxMask - dedupCapacity)

// dedupSet is a node's duplicate-suppression memory: exactly the last
// capacity distinct keys inserted, forgetting the oldest first. It is a
// FIFO ring of the keys plus an open-addressing hash table of ring
// indices, so the steady state — every insert past capacity evicts the
// oldest key — reuses the same two arrays and never allocates.
//
// The table uses linear probing with backward-shift deletion, so an
// eviction leaves no tombstone behind and probe runs never degrade under
// churn. Each slot carries its key's fingerprint, whose top bits are the
// key's home slot: a probe reads the ring only on a fingerprint match
// (almost always the key itself), so a lookup of an absent key touches
// the table alone, and a backward shift finds each moved entry's home
// without reading its key. Both arrays grow lazily with the ring, the
// table kept at least twice the ring's capacity (load ≤ 1/2); at a full
// cache of 1024 keys the set holds 8 KB of keys and 8 KB of table.
// Growing lazily keeps the sets of quiet nodes small: on perfbench
// soak-batch (four 1 000-node deployments) 26–32 % of sensors never
// held a key and only 3–5 % reached 1 024, so building every set at
// full size would add about 11 MB. Nothing iterates the set, so its
// layout cannot reach any output.
//
// The zero value is an empty set.
type dedupSet struct {
	// ring holds the inserted keys in insertion order until it reaches
	// capacity; from then on ring[pos] is the oldest key, the next to go.
	ring []dedupKey
	pos  int32
	// slots is the hash table, a power of two long: fingerprint and ring
	// index + 1 of the key stored there, or 0 for an empty slot.
	slots []uint32
	// shift maps a fingerprint to its home slot: home = fp >> shift.
	shift uint8
}

// dedupFP is k's fingerprint: the top dedupFPBits of a Fibonacci hash of
// the 64-bit key. Never 0 in a slot, because the index field is not.
func dedupFP(k dedupKey) uint32 {
	return uint32(k.u64() * 0x9e3779b97f4a7c15 >> (64 - dedupFPBits))
}

// insert adds k if it is absent, evicting the oldest key when the set
// already holds capacity keys, and reports whether k was absent. capacity
// must be positive and the same on every call.
func (d *dedupSet) insert(k dedupKey, capacity int) bool {
	fp := dedupFP(k)
	if len(d.slots) > 0 {
		if _, ok := d.lookup(k, fp); ok {
			return false
		}
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
	d.slots[d.vacant(fp)] = fp<<dedupIdxBits | uint32(idx+1)
	return true
}

// has reports whether k is in the set.
func (d *dedupSet) has(k dedupKey) bool {
	if len(d.slots) == 0 {
		return false
	}
	_, ok := d.lookup(k, dedupFP(k))
	return ok
}

// lookup returns the slot holding k, whose fingerprint is fp, or else
// the empty slot that ends k's probe run (the table is never full, so
// one exists).
func (d *dedupSet) lookup(k dedupKey, fp uint32) (uint32, bool) {
	mask := uint32(len(d.slots) - 1)
	for i := fp >> d.shift; ; i = (i + 1) & mask {
		e := d.slots[i]
		if e == 0 {
			return i, false
		}
		if e>>dedupIdxBits == fp && d.ring[e&dedupIdxMask-1] == k {
			return i, true
		}
	}
}

// vacant returns the first empty slot of the probe run that starts at
// fp's home: where an absent key with fingerprint fp goes.
func (d *dedupSet) vacant(fp uint32) uint32 {
	mask := uint32(len(d.slots) - 1)
	i := fp >> d.shift
	for d.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// unlink removes ring index idx from the table. Each later entry of the
// probe run that may legally sit in the hole (its home is not inside
// the gap between the hole and itself) moves back into it, and the last
// hole is emptied, so the table stays exactly as if idx had never been
// inserted.
func (d *dedupSet) unlink(idx int32) {
	mask := uint32(len(d.slots) - 1)
	hole := dedupFP(d.ring[idx]) >> d.shift
	for d.slots[hole]&dedupIdxMask != uint32(idx+1) {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; d.slots[j] != 0; j = (j + 1) & mask {
		e := d.slots[j]
		if (j-e>>dedupIdxBits>>d.shift)&mask >= (j-hole)&mask {
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
	d.slots = make([]uint32, 1<<b)
	d.shift = uint8(dedupFPBits - b)
	for idx, k := range d.ring {
		fp := dedupFP(k)
		d.slots[d.vacant(fp)] = fp<<dedupIdxBits | uint32(idx+1)
	}
}
