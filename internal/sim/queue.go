package sim

import "time"

// eventQueue is the binary min-heap every lane schedules on. It orders
// by the key (at, src, seq) held by value beside each event pointer, so
// sifting compares plain integers and never dereferences an event.
// Coordinator events leave src at 0 and take seq from the engine's
// coordinator counter; shard events carry their canonical (at, src, seq)
// lane key. Keys are unique within a queue, so the pop order is a pure
// function of the keys pushed, whatever the heap's internal layout.
type eventQueue []qent

// qent packs (src, seq) into one word, src above the laneSeqBits low
// bits, so an entry is three words and a tie on at costs one compare.
type qent struct {
	at   time.Duration
	lane uint64
	ev   *event
}

// laneSeqBits is the width of the lane sequence in qent.lane: a lane
// holds up to 2^40 events and a graph up to maxNodes nodes (New checks).
const (
	laneSeqBits = 40
	maxNodes    = 1 << (64 - laneSeqBits)
)

func (a *qent) less(b *qent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.lane < b.lane
}

// push queues ev under its (at, src, seq) key.
func (q *eventQueue) push(ev *event) {
	k := qent{at: ev.at, lane: uint64(ev.src)<<laneSeqBits | ev.seq, ev: ev}
	h := append(*q, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	*q = h
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *eventQueue) pop() *event {
	h := *q
	top := h[0].ev
	n := len(h) - 1
	last := h[n]
	h[n] = qent{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].less(&h[c]) {
				c++
			}
			if !h[c].less(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}
