package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// coldSensors is the fixture of BenchmarkOnDataColdSensors: n relays at
// hop 2 of one cluster, configured like perfbench soak-batch (batches of
// 8, two data retries), and two senders that seal DATA frames from hop 3
// (relayed onward) and hop 1 (an implicit ack of the same readings).
type coldSensors struct {
	relays []*Sensor
	hi, lo *Sensor
	ctx    *benchCtx
	seq    uint32
}

const (
	coldReadings  = 8  // readings per frame
	coldReceivers = 8  // relays that hear each frame, back to back
	coldFrames    = 32 // frames sealed per round
)

func newColdSensors(n int) *coldSensors {
	auth := AuthorityFromSeed(42, 16)
	cfg := Config{BatchSize: coldReadings, DataRetries: 2}
	key := auth.MaterialFor(1).CandidateClusterKey
	mk := func(id int, hop uint16) *Sensor {
		s := NewSensor(cfg, auth.MaterialFor(node.ID(id)))
		s.ks.JoinCluster(1, key)
		s.phase = PhaseOperational
		s.hop = hop
		return s
	}
	c := &coldSensors{hi: mk(n+1, 3), lo: mk(n+2, 1), ctx: &benchCtx{rng: xrand.New(7)}}
	// The simulator's shard scratch: a frame its receivers open back to
	// back is verified once.
	c.ctx.sc = *node.NewSharedScratch()
	for i := range n {
		c.relays = append(c.relays, mk(i+1, 2))
	}
	return c
}

// seal returns one round of frames: coldFrames forward frames of fresh
// readings from hop 3, and for each the ack frame of the same readings
// from hop 1.
func (c *coldSensors) seal() (fwd, ack [][]byte) {
	inner := make([]byte, 40)
	rs := make([]wire.Reading, coldReadings)
	for range coldFrames {
		for i := range rs {
			c.seq++
			rs[i] = wire.Reading{Origin: 5000 + c.seq%997, Seq: c.seq, Inner: inner}
		}
		c.hi.sealData(c.ctx, rs)
		fwd = append(fwd, append([]byte(nil), c.ctx.last...))
		c.lo.sealData(c.ctx, rs)
		ack = append(ack, append([]byte(nil), c.ctx.last...))
	}
	return fwd, ack
}

// BenchmarkOnDataColdSensors measures a relay's DATA-frame path (open,
// freshness, implicit acks, dedup, batching, retry tracking, the relay
// seal) with per-node state out of cache, the way a simulation shard
// touches it: each frame goes to coldReceivers relays back to back, and
// consecutive frames go to different relays, so a relay comes round
// again only after every other relay has had its turn. One op is one
// relayed reading; each is forwarded once and then implicitly acked.
// Every reading is fresh, so each one inserts into a dedup set, tracks a
// pending send and is acked; the sets are warmed to 512 keys (64 visits)
// first. BenchmarkEndToEndReading and BenchmarkDedupSet keep one sensor
// hot and cannot see this cost.
func BenchmarkOnDataColdSensors(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			c := newColdSensors(n)
			var fwd, ack [][]byte
			next, visit := 0, 0
			// step hands the current frame and its ack to the next relay.
			step := func() {
				if visit == len(fwd)*coldReceivers {
					b.StopTimer()
					fwd, ack = c.seal()
					c.ctx.now += time.Millisecond
					visit = 0
					b.StartTimer()
				}
				f := visit / coldReceivers
				s := c.relays[next]
				s.Receive(c.ctx, c.hi.id, fwd[f])
				s.Receive(c.ctx, c.lo.id, ack[f])
				next = (next + 1) % len(c.relays)
				visit++
			}
			for range 64 * n {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for ; done < b.N; done += coldReadings {
				step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(done), "ns/reading")
			for _, s := range c.relays {
				if len(s.pending) != 0 || len(s.batchQ) != 0 {
					b.Fatalf("relay %d holds %d unacked and %d queued readings", s.id, len(s.pending), len(s.batchQ))
				}
			}
		})
	}
}
