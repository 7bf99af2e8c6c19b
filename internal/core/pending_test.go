package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// refPending is the ack-gated retry state as it was before the sorted
// slab: a map of pointer entries plus a free list, with the due subset
// sorted at every tick. It is kept as the reference the slab must
// reproduce: the same retransmissions in the same order, the same random
// draws and timers, the same give-ups and the same degraded flag.
type refPending struct {
	retries      int
	inCluster    bool
	pendingAcks  map[dedupKey]*refPendingSend
	freePending  []*refPendingSend
	retryMinAt   time.Duration
	retryTimerAt time.Duration
	retryDue     []dedupKey
	degraded     bool
	giveUps      int
	sends        []wire.Reading
}

type refPendingSend struct {
	inner    []byte
	attempts int
	nextAt   time.Duration
}

func (r *refPending) backoff(ctx node.Context, attempt int) time.Duration {
	return dataRetryBase<<attempt + time.Duration(ctx.Rand().Uint64n(uint64(dataRetryBase)))
}

func (r *refPending) track(ctx node.Context, inner []byte, origin node.ID, seq uint32) {
	k := dedupKey{origin, seq}
	if _, ok := r.pendingAcks[k]; ok {
		return
	}
	if r.pendingAcks == nil {
		r.pendingAcks = make(map[dedupKey]*refPendingSend)
	}
	d := r.backoff(ctx, 0)
	at := ctx.Now() + d
	if len(r.pendingAcks) == 0 || at < r.retryMinAt {
		r.retryMinAt = at
	}
	var p *refPendingSend
	if n := len(r.freePending); n > 0 {
		p, r.freePending = r.freePending[n-1], r.freePending[:n-1]
	} else {
		p = new(refPendingSend)
	}
	*p = refPendingSend{inner: append(p.inner[:0], inner...), nextAt: at}
	r.pendingAcks[k] = p
	if r.retryTimerAt == 0 || at < r.retryTimerAt {
		ctx.SetTimer(d, tagDataRetry)
		r.retryTimerAt = at
	}
}

func (r *refPending) ack(readings []wire.Reading) {
	for i := range readings {
		k := dedupKey{readings[i].Origin, readings[i].Seq}
		if p, ok := r.pendingAcks[k]; ok {
			delete(r.pendingAcks, k)
			r.freePending = append(r.freePending, p)
			r.degraded = false
		}
	}
}

func (r *refPending) tick(ctx node.Context) {
	now := ctx.Now()
	if r.retryTimerAt != 0 && now >= r.retryTimerAt {
		r.retryTimerAt = 0
	}
	if !r.inCluster || len(r.pendingAcks) == 0 {
		return
	}
	if now < r.retryMinAt {
		r.ensureTimer(ctx, now)
		return
	}
	due := r.retryDue[:0]
	min := time.Duration(1<<63 - 1)
	for k, p := range r.pendingAcks {
		if p.nextAt <= now {
			due = append(due, k)
		} else if p.nextAt < min {
			min = p.nextAt
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].origin != due[j].origin {
			return due[i].origin < due[j].origin
		}
		return due[i].seq < due[j].seq
	})
	for _, k := range due {
		p := r.pendingAcks[k]
		if p.attempts >= r.retries {
			delete(r.pendingAcks, k)
			r.freePending = append(r.freePending, p)
			r.degraded = true
			r.giveUps++
			continue
		}
		p.attempts++
		r.sends = append(r.sends, wire.Reading{Origin: k.origin, Seq: k.seq, Inner: slices.Clone(p.inner)})
		p.nextAt = now + r.backoff(ctx, p.attempts)
		if p.nextAt < min {
			min = p.nextAt
		}
	}
	r.retryDue = due[:0]
	if len(r.pendingAcks) > 0 {
		r.retryMinAt = min
		r.ensureTimer(ctx, now)
	}
}

func (r *refPending) ensureTimer(ctx node.Context, now time.Duration) {
	if r.retryTimerAt != 0 && r.retryTimerAt <= r.retryMinAt {
		return
	}
	ctx.SetTimer(max(r.retryMinAt-now, 0), tagDataRetry)
	r.retryTimerAt = r.retryMinAt
}

// evict is what eviction and handoff did to the retry state.
func (r *refPending) evict() {
	clear(r.pendingAcks)
	r.retryTimerAt = 0
	r.inCluster = false
}

// reboot is what a warm reboot did to it.
func (r *refPending) reboot() { r.pendingAcks = nil }

// pendCtx is a node.Context that records the data-retry timers armed
// and every broadcast.
type pendCtx struct {
	now    time.Duration
	rng    *xrand.RNG
	keys   *crypt.Keyring
	sc     node.Scratch
	timers []time.Duration // deadlines of tagDataRetry timers, in arming order
	sent   [][]byte
}

func (c *pendCtx) ID() node.ID        { return 3 }
func (c *pendCtx) Now() time.Duration { return c.now }
func (c *pendCtx) Broadcast(pkt []byte) {
	c.sent = append(c.sent, slices.Clone(pkt))
}
func (c *pendCtx) SetTimer(d time.Duration, tag node.Tag) node.TimerID {
	if tag == tagDataRetry {
		c.timers = append(c.timers, c.now+d)
	}
	return 1
}
func (c *pendCtx) CancelTimer(node.TimerID)    {}
func (c *pendCtx) Rand() *xrand.RNG            { return c.rng }
func (c *pendCtx) ChargeCipher(int)            {}
func (c *pendCtx) ChargeMAC(int)               {}
func (c *pendCtx) Die()                        {}
func (c *pendCtx) Scratch() *node.Scratch      { return &c.sc }
func (c *pendCtx) Keyring() *crypt.Keyring     { return c.keys }
func (c *pendCtx) takeSent() (out [][]byte)    { out, c.sent = c.sent, nil; return out }
func (c *pendCtx) takeTimers() []time.Duration { t := c.timers; c.timers = nil; return t }

// decodeData opens a DATA frame sealed under key and returns its
// readings.
func decodeData(t *testing.T, pkt []byte, key crypt.Key) []wire.Reading {
	t.Helper()
	var f wire.Frame
	if err := wire.ParseFrameInto(&f, pkt); err != nil || f.Type != wire.TData {
		t.Fatalf("broadcast is not a DATA frame (%v)", err)
	}
	body, ok := crypt.Open(key, f.Nonce, FrameAAD(f.Type, f.CID), f.Payload)
	if !ok {
		t.Fatal("DATA frame does not open under the cluster key")
	}
	var d wire.Data
	if err := wire.UnmarshalDataInto(&d, body); err != nil {
		t.Fatal(err)
	}
	for i := range d.Readings {
		d.Readings[i].Inner = slices.Clone(d.Readings[i].Inner)
	}
	return d.Readings
}

// TestPendingSlabMatchesReference drives a sensor's pending slab and the
// reference map with the same random sequence of tracks, implicit acks,
// retry ticks, warm reboots and evictions (with re-admission), and
// requires after every step: the same retransmissions in the same order,
// the same data-retry timers, the same random draws, the same give-ups,
// the same degraded flag and the same pending entries.
func TestPendingSlabMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		retries, origins, seqs int
	}{
		{1, 3, 8},
		{2, 5, 40},
		{3, 40, 400},
	} {
		t.Run(fmt.Sprintf("retries=%d/keys=%d", tc.retries, tc.origins*tc.seqs), func(t *testing.T) {
			auth := AuthorityFromSeed(9, 16)
			reg := obs.NewRegistry()
			s := NewSensor(Config{DataRetries: tc.retries, Obs: reg.Scope("pending", 0)}, auth.MaterialFor(3))
			key := s.ks.CandidateClusterKey
			s.ks.JoinCluster(1, key)
			s.phase = PhaseOperational
			s.hop = 2
			ref := &refPending{retries: tc.retries, inCluster: true}
			got := &pendCtx{rng: xrand.New(11), keys: crypt.NewKeyring()}
			want := &pendCtx{rng: xrand.New(11)}

			ops := xrand.New(uint64(tc.origins))
			draw := func() dedupKey {
				return dedupKey{origin: uint32(ops.Uint64n(uint64(tc.origins))) * 977, seq: uint32(ops.Uint64n(uint64(tc.seqs)))}
			}
			var retx, giveUps uint64
			for op := 0; op < 20000; op++ {
				got.now += time.Duration(ops.Uint64n(uint64(20 * time.Millisecond)))
				want.now = got.now
				var what string
				switch r := ops.Uint64n(100); {
				case r < 45:
					what = "track"
					k := draw()
					inner := fmt.Appendf(nil, "inner %d/%d at %d", k.origin, k.seq, op)
					s.trackPending(got, inner, k.origin, k.seq)
					ref.track(want, inner, k.origin, k.seq)
				case r < 70:
					what = "ack"
					rs := make([]wire.Reading, 1+ops.Uint64n(4))
					for i := range rs {
						k := draw()
						rs[i] = wire.Reading{Origin: k.origin, Seq: k.seq}
					}
					s.ackPending(rs)
					ref.ack(rs)
				case r < 97:
					what = "tick"
					s.dataRetryTick(got)
					ref.tick(want)
				case r < 98:
					what = "reboot"
					s.Reboot(got)
					ref.reboot()
				case r < 99:
					what = "evict"
					s.leaveCluster()
					ref.evict()
				default:
					what = "rejoin"
					s.ks.JoinCluster(1, key)
					ref.inCluster = true
				}
				step := func(f string, a ...any) {
					t.Helper()
					t.Fatalf("op %d (%s): %s", op, what, fmt.Sprintf(f, a...))
				}
				var sends []wire.Reading
				for _, pkt := range got.takeSent() {
					sends = append(sends, decodeData(t, pkt, key)...)
				}
				if len(sends) != len(ref.sends) {
					step("%d retransmissions, reference %d", len(sends), len(ref.sends))
				}
				for i := range sends {
					a, b := sends[i], ref.sends[i]
					if a.Origin != b.Origin || a.Seq != b.Seq || !bytes.Equal(a.Inner, b.Inner) {
						step("retransmission %d is (%d, %d, %q), reference (%d, %d, %q)", i, a.Origin, a.Seq, a.Inner, b.Origin, b.Seq, b.Inner)
					}
				}
				retx += uint64(len(ref.sends))
				ref.sends = ref.sends[:0]
				if a, b := got.takeTimers(), want.takeTimers(); !slices.Equal(a, b) {
					step("retry timers %v, reference %v", a, b)
				}
				if a, b := got.rng.Uint64(), want.rng.Uint64(); a != b {
					step("random streams diverged")
				}
				giveUps = uint64(ref.giveUps)
				if s.om.degraded.Value() != giveUps || s.om.dataRetx.Value() != retx {
					step("%d give-ups and %d retransmissions counted, reference %d and %d",
						s.om.degraded.Value(), s.om.dataRetx.Value(), giveUps, retx)
				}
				if s.degraded != ref.degraded {
					step("degraded %v, reference %v", s.degraded, ref.degraded)
				}
				if s.retryTimerAt != ref.retryTimerAt || (len(s.pending) > 0 && s.retryMinAt != ref.retryMinAt) {
					step("retry deadlines %v/%v, reference %v/%v", s.retryTimerAt, s.retryMinAt, ref.retryTimerAt, ref.retryMinAt)
				}
				if len(s.pending) != len(ref.pendingAcks) {
					step("%d pending, reference %d", len(s.pending), len(ref.pendingAcks))
				}
				for i, p := range s.pending {
					if i > 0 && s.pending[i-1].key.u64() >= p.key.u64() {
						step("slab out of order at %d", i)
					}
					r, ok := ref.pendingAcks[p.key]
					if !ok || r.attempts != p.attempts || r.nextAt != p.nextAt || !bytes.Equal(r.inner, p.inner) {
						step("entry %v differs from the reference's", p.key)
					}
				}
			}
			if retx == 0 || giveUps == 0 {
				t.Fatalf("sequence reached %d retransmissions and %d give-ups; want both", retx, giveUps)
			}
			t.Logf("%d retransmissions, %d give-ups, slab capacity %d", retx, giveUps, cap(s.pending))
		})
	}
}

// TestPendingSlabAllocFree pins the steady state: once the slab has held
// as many entries as are in flight, tracking a reading and acking
// another reuse retired entries and their inner buffers.
func TestPendingSlabAllocFree(t *testing.T) {
	s, ctx, next := pendingBench(64)
	inner := make([]byte, 60)
	if n := testing.AllocsPerRun(1000, func() { next(s, ctx, inner) }); n != 0 {
		t.Fatalf("track + ack allocates %v/op; want 0", n)
	}
}

// pendingBench returns a sensor with inFlight readings tracked, and a
// step that tracks one more reading and implicitly acks the oldest, so
// inFlight stay pending. Origins are spread so insertions land all over
// the slab, as a relay's mix of flows does.
func pendingBench(inFlight int) (*Sensor, *benchCtx, func(*Sensor, *benchCtx, []byte)) {
	auth := AuthorityFromSeed(42, 16)
	s := NewSensor(Config{DataRetries: 3}, auth.MaterialFor(1))
	s.ks.JoinCluster(1, s.ks.CandidateClusterKey)
	s.phase = PhaseOperational
	s.hop = 2
	ctx := &benchCtx{rng: xrand.New(7)}
	keys := make([]dedupKey, inFlight)
	var n uint32
	key := func() dedupKey { n++; return dedupKey{origin: n * 2654435761 % 997, seq: n} }
	inner := make([]byte, 60)
	for i := range keys {
		keys[i] = key()
		s.trackPending(ctx, inner, keys[i].origin, keys[i].seq)
	}
	var ack [1]wire.Reading
	head := 0
	return s, ctx, func(s *Sensor, ctx *benchCtx, inner []byte) {
		k := key()
		s.trackPending(ctx, inner, k.origin, k.seq)
		ack[0] = wire.Reading{Origin: keys[head].origin, Seq: keys[head].seq}
		s.ackPending(ack[:])
		keys[head] = k
		head = (head + 1) % len(keys)
	}
}

// BenchmarkPendingAcks measures one track plus one implicit ack at a
// steady number of readings in flight, on the slab and on the reference
// map. perfbench soak-batch averages 11 entries per lookup (at most 128);
// the 4 096 case shows where the slab's shifts overtake the map.
func BenchmarkPendingAcks(b *testing.B) {
	for _, inFlight := range []int{16, 4096} {
		b.Run(fmt.Sprintf("slab/%d", inFlight), func(b *testing.B) {
			s, ctx, next := pendingBench(inFlight)
			inner := make([]byte, 60)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next(s, ctx, inner)
			}
		})
		b.Run(fmt.Sprintf("map/%d", inFlight), func(b *testing.B) {
			ref := &refPending{retries: 3, inCluster: true}
			ctx := &benchCtx{rng: xrand.New(7)}
			keys := make([]dedupKey, inFlight)
			var n uint32
			key := func() dedupKey { n++; return dedupKey{origin: n * 2654435761 % 997, seq: n} }
			inner := make([]byte, 60)
			for i := range keys {
				keys[i] = key()
				ref.track(ctx, inner, keys[i].origin, keys[i].seq)
			}
			var ack [1]wire.Reading
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := key()
				ref.track(ctx, inner, k.origin, k.seq)
				h := i % inFlight
				ack[0] = wire.Reading{Origin: keys[h].origin, Seq: keys[h].seq}
				ref.ack(ack[:])
				keys[h] = k
			}
		})
	}
}
