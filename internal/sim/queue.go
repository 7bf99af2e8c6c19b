package sim

import "time"

// The engine's queues are binary min-heaps ordered by the key
// (at, src, seq), held by value beside each entry's payload, so sifting
// compares plain integers and never dereferences what it orders.
// Coordinator events leave src at 0 and take seq from the engine's
// coordinator counter; shard entries carry their canonical (at, src, seq)
// lane key. Keys are unique within a queue, so the pop order is a pure
// function of the keys pushed, whatever the heap's internal layout.
//
// A shard keeps two heaps that draw keys from the same lane counters:
// an eventQueue of host-lane events and a recordQueue of transmission
// records (see shard.go), which the shard's loop merges by key.

// key packs (src, seq) into one word, src above the laneSeqBits low
// bits, so a tie on at costs one compare.
type key struct {
	at   time.Duration
	lane uint64
}

// ent is a heap entry: a key and the payload it orders.
type ent[T any] struct {
	key
	val T
}

// laneSeqBits is the width of the lane sequence in key.lane: a lane
// holds up to 2^40 events and a graph up to maxNodes nodes (New checks).
const (
	laneSeqBits = 40
	maxNodes    = 1 << (64 - laneSeqBits)
)

// laneKey packs a lane and its sequence into key.lane.
func laneKey(src int32, seq uint64) uint64 { return uint64(src)<<laneSeqBits | seq }

// before orders keys. It is a method of the non-generic key, not of
// ent, so the heaps below compile it inline whatever their payload.
func (a key) before(b key) bool {
	return a.at < b.at || a.at == b.at && a.lane < b.lane
}

// heapPush adds k to the heap h.
func heapPush[T any](h []ent[T], k ent[T]) []ent[T] {
	h = append(h, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(h[parent].key) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	return h
}

// heapDown sifts k down from the root of h, whose root slot is free.
func heapDown[T any](h []ent[T], k ent[T]) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c].key) {
			c++
		}
		if !h[c].before(k.key) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = k
}

// heapPop removes the root of the non-empty heap h.
func heapPop[T any](h []ent[T]) ([]ent[T], T) {
	top := h[0].val
	n := len(h) - 1
	last := h[n]
	h[n] = ent[T]{}
	h = h[:n]
	if n > 0 {
		heapDown(h, last)
	}
	return h, top
}

// eventQueue is a lane's heap of events.
type eventQueue []ent[*event]

// push queues ev under its (at, src, seq) key.
func (q *eventQueue) push(ev *event) {
	*q = heapPush(*q, ent[*event]{key{ev.at, laneKey(ev.src, ev.seq)}, ev})
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *eventQueue) pop() *event {
	h, ev := heapPop(*q)
	*q = h
	return ev
}

// recordQueue is a shard's heap of transmission records, each keyed by
// its next arrival and named by its slot in the shard's record slab. Its
// entries hold no pointers, so sifting them costs no write barriers.
type recordQueue []ent[int32]

func (q *recordQueue) push(at time.Duration, lane uint64, slot int32) {
	*q = heapPush(*q, ent[int32]{key{at, lane}, slot})
}

// pop removes the earliest record; the queue must not be empty.
func (q *recordQueue) pop() {
	*q, _ = heapPop(*q)
}

// rekeyTop moves the earliest record to the key of its next arrival,
// which is never earlier than its last one.
func (q *recordQueue) rekeyTop(at time.Duration, lane uint64) {
	h := *q
	heapDown(h, ent[int32]{key{at, lane}, h[0].val})
}
