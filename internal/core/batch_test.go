package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// deliveryKey folds a delivery's identity into one comparable value.
func deliveryKey(d Delivery) uint64 { return uint64(d.Origin)<<32 | uint64(d.Seq) }

// deliverySet indexes deliveries by (origin, seq), checking at-most-once
// along the way.
func deliverySet(t *testing.T, name string, del []Delivery) map[uint64]Delivery {
	t.Helper()
	set := make(map[uint64]Delivery, len(del))
	for _, d := range del {
		if _, dup := set[deliveryKey(d)]; dup {
			t.Fatalf("%s: duplicate delivery origin=%d seq=%d", name, d.Origin, d.Seq)
		}
		set[deliveryKey(d)] = d
	}
	return set
}

// TestBatchedDeliverySetMatchesUnbatched is the tentpole's semantic
// contract: with a loss-free radio, batching changes packet timing but
// must deliver exactly the same set of readings with exactly the same
// plaintext. The batched arm also runs with buffer poisoning on, so any
// batch-path retention of a recycled radio buffer corrupts the comparison.
func TestBatchedDeliverySetMatchesUnbatched(t *testing.T) {
	delOff, _, _ := protocolRun(t, func(o *DeployOptions) { o.Loss = 0 })
	delBat, _, _ := protocolRun(t, func(o *DeployOptions) {
		o.Loss = 0
		o.Config.BatchSize = 8
		o.PoisonRecycled = true
	})

	off := deliverySet(t, "unbatched", delOff)
	bat := deliverySet(t, "batched", delBat)
	if len(bat) != len(off) {
		t.Fatalf("batched delivered %d readings, unbatched %d", len(bat), len(off))
	}
	for k, a := range off {
		b, ok := bat[k]
		if !ok {
			t.Fatalf("reading origin=%d seq=%d delivered unbatched but lost batched", a.Origin, a.Seq)
		}
		if a.Encrypted != b.Encrypted || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("reading origin=%d seq=%d differs: %+v vs %+v", a.Origin, a.Seq, a, b)
		}
	}
	if len(off) == 0 {
		t.Fatal("equivalence vacuous: no deliveries")
	}
}

// burstRun drives a loss-free deployment where every node emits a quick
// burst of readings (well inside one flush window), so batching has
// something to aggregate, and returns the energy report plus the
// delivered set.
func burstRun(t *testing.T, batch int) (EnergyReport, map[uint64]Delivery) {
	t.Helper()
	d, err := Deploy(DeployOptions{N: 40, Density: 10, Seed: 11, Config: Config{BatchSize: batch}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	base := d.Eng.Now()
	for i := 0; i < 40; i++ {
		if i == d.BSIndex {
			continue
		}
		at := base + time.Duration(i)*time.Millisecond
		for k := 0; k < 4; k++ {
			d.SendReading(i, at+time.Duration(k)*2*time.Millisecond, []byte{byte(i), byte(k), 0xC5})
		}
	}
	if _, err := d.Eng.RunUntilIdle(20_000_000); err != nil {
		t.Fatal(err)
	}
	return d.Energy(), deliverySet(t, "burst", d.Deliveries())
}

// TestBatchedSealingReducesPackets is the throughput claim in miniature:
// under bursty traffic, batch=8 must move the same readings in strictly
// fewer radio transmissions than one reading per frame.
func TestBatchedSealingReducesPackets(t *testing.T) {
	enOff, off := burstRun(t, 0)
	enBat, bat := burstRun(t, 8)

	want := 39 * 4
	if len(off) != want || len(bat) != want {
		t.Fatalf("delivered %d unbatched / %d batched readings, want %d each", len(off), len(bat), want)
	}
	for k, a := range off {
		if b := bat[k]; !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("reading origin=%d seq=%d payload differs", a.Origin, a.Seq)
		}
	}
	if enBat.TxCount >= enOff.TxCount {
		t.Fatalf("batching did not reduce transmissions: %d batched vs %d unbatched", enBat.TxCount, enOff.TxCount)
	}
}

// TestBatchDeadlineFlush checks that a lone queued reading does not wait
// for the batch to fill: the deadline timer pushes it out, and it arrives
// no earlier than one flush delay after origination.
func TestBatchDeadlineFlush(t *testing.T) {
	d, err := Deploy(DeployOptions{N: 30, Density: 10, Seed: 13, Config: Config{BatchSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	base := d.Eng.Now()
	src := 1
	if src == d.BSIndex {
		src = 2
	}
	d.SendReading(src, base, []byte("lonely"))
	if _, err := d.Eng.RunUntilIdle(2_000_000); err != nil {
		t.Fatal(err)
	}
	del := d.Deliveries()
	if len(del) != 1 {
		t.Fatalf("delivered %d readings, want 1", len(del))
	}
	if got := del[0].At; got < base+d.Cfg.BatchFlushDelay {
		t.Fatalf("delivery at %v predates the deadline flush (sent %v, flush delay %v)", got, base, d.Cfg.BatchFlushDelay)
	}
	if !bytes.Equal(del[0].Data, []byte("lonely")) {
		t.Fatalf("delivered %q, want %q", del[0].Data, "lonely")
	}
}

// TestBatchFillFlushesEarly checks the count trigger: a full batch goes
// out immediately, without waiting for the deadline.
func TestBatchFillFlushesEarly(t *testing.T) {
	d, err := Deploy(DeployOptions{N: 30, Density: 10, Seed: 13, Config: Config{BatchSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	base := d.Eng.Now()
	src := 1
	if src == d.BSIndex {
		src = 2
	}
	for k := 0; k < 4; k++ {
		d.SendReading(src, base, []byte{0xF0, byte(k)})
	}
	if _, err := d.Eng.RunUntilIdle(2_000_000); err != nil {
		t.Fatal(err)
	}
	del := d.Deliveries()
	if len(del) != 4 {
		t.Fatalf("delivered %d readings, want 4", len(del))
	}
	for _, dv := range del {
		if dv.At >= base+d.Cfg.BatchFlushDelay {
			t.Fatalf("delivery at %v waited for the deadline; the full batch should flush immediately", dv.At)
		}
	}
}

// TestRevokedSensorAbandonsPendingRetries is the stale-retry-timer audit:
// a sensor evicted from its cluster while it has an unflushed batch and an
// unacknowledged reading must retire both. Nothing may go out under a key
// the node no longer holds — no deferred batch flush, no ack-gated
// retransmission resurrected by an already-armed timer.
func TestRevokedSensorAbandonsPendingRetries(t *testing.T) {
	var cfg Config
	cfg.DataRetries = 3
	cfg.BatchSize = 8
	cfg.BatchFlushDelay = 200 * time.Millisecond

	victim := -1
	var dataTx []time.Duration
	opt := DeployOptions{N: 50, Density: 10, Seed: 5, Config: cfg}
	opt.Trace = func(ev sim.TraceEvent) {
		if victim >= 0 && int(ev.From) == victim && len(ev.Pkt) > 0 {
			if wire.Type(ev.Pkt[0]) == wire.TData {
				dataTx = append(dataTx, ev.At)
			}
		}
	}
	d, err := Deploy(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}

	// Pick a victim in a foreign cluster, out of the base station's radio
	// range (so the BS's hop-0 delivery echo cannot ack it), and make every
	// other sensor a selective-forwarding attacker so no relay ever acks
	// the victim's reading: its retry budget would run the full course.
	bsCID, _ := d.BS().Cluster()
	for i, s := range d.Sensors {
		if i == d.BSIndex || d.Graph.Adjacent(i, d.BSIndex) {
			continue
		}
		if cid, ok := s.Cluster(); ok && cid != bsCID {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no suitable victim node in topology")
	}
	for i, s := range d.Sensors {
		if i != d.BSIndex && i != victim {
			s.Malice.DropData = true
		}
	}

	vs := d.Sensors[victim]
	vcid, _ := vs.Cluster()
	base := d.Eng.Now()
	d.SendReading(victim, base+time.Millisecond, []byte("doomed"))
	// The reading is now queued for the 200ms deadline flush and tracked
	// for retry at ~40-80ms. Revoke the victim's cluster before either
	// timer fires; the flood reaches it within a few propagation delays.
	d.Eng.Do(base+2*time.Millisecond, d.BSIndex, func(ctx node.Context) {
		d.BS().RevokeClusters(ctx, []uint32{vcid})
	})
	if _, err := d.Eng.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}

	if !vs.Evicted() {
		t.Fatal("victim still thinks it is in a cluster after revocation")
	}
	if n := len(vs.pending); n != 0 {
		t.Fatalf("victim retains %d pending ack-gated sends after eviction", n)
	}
	if len(vs.batchQ) != 0 || len(vs.batchBuf) != 0 {
		t.Fatalf("victim retains a queued batch after eviction (%d entries, %d bytes)", len(vs.batchQ), len(vs.batchBuf))
	}
	if vs.Degraded() {
		t.Fatal("abandoning retries must not be reported as degraded operation")
	}
	if len(dataTx) != 0 {
		t.Fatalf("victim transmitted data %d times (first at %v) despite eviction before any flush or retry", len(dataTx), dataTx[0])
	}
	if len(d.Deliveries()) != 0 {
		t.Fatal("the doomed reading reached the base station; the test topology is wrong")
	}
}

// benchCtx is a no-op node.Context whose methods never allocate; it
// captures the last broadcast packet for hand-driven sensor<->BS loops.
type benchCtx struct {
	now    time.Duration
	last   []byte
	timers int
	rng    *xrand.RNG
	keys   *crypt.Keyring
	sc     node.Scratch
}

func (c *benchCtx) ID() node.ID                                   { return 1 }
func (c *benchCtx) Now() time.Duration                            { return c.now }
func (c *benchCtx) Broadcast(pkt []byte)                          { c.last = pkt }
func (c *benchCtx) SetTimer(time.Duration, node.Tag) node.TimerID { c.timers++; return 1 }
func (c *benchCtx) CancelTimer(node.TimerID)                      {}
func (c *benchCtx) Rand() *xrand.RNG                              { return c.rng }
func (c *benchCtx) ChargeCipher(int)                              {}
func (c *benchCtx) ChargeMAC(int)                                 {}
func (c *benchCtx) Die()                                          {}
func (c *benchCtx) Scratch() *node.Scratch                        { return &c.sc }
func (c *benchCtx) Keyring() *crypt.Keyring {
	if c.keys == nil {
		c.keys = crypt.NewKeyring()
	}
	return c.keys
}

// wireOperationalPair hand-builds a sensor and a base station sharing one
// cluster, both operational, bypassing the setup phases — the minimal
// fixture for exercising the send/deliver hot path in isolation.
func wireOperationalPair(t *testing.T) (sn, bs *Sensor, ctx *benchCtx) {
	t.Helper()
	auth := AuthorityFromSeed(42, 16)
	bs = NewBaseStation(Config{}, auth.MaterialFor(0), auth)
	sn = NewSensor(Config{}, auth.MaterialFor(1))
	key := sn.ks.CandidateClusterKey
	sn.ks.JoinCluster(1, key)
	sn.phase = PhaseOperational
	sn.hop = 1
	bs.ks.JoinCluster(1, key)
	bs.phase = PhaseOperational
	return sn, bs, &benchCtx{rng: xrand.New(7)}
}

// TestUnbatchedSendGoesOutAtOnce pins BatchSize <= 1: each reading
// leaves in its own DATA frame inside SendReading, and no flush timer
// is ever armed.
func TestUnbatchedSendGoesOutAtOnce(t *testing.T) {
	sn, _, ctx := wireOperationalPair(t)
	for k := 0; k < 3; k++ {
		ctx.last = nil
		if _, ok := sn.SendReading(ctx, []byte{byte(k)}); !ok || ctx.last == nil {
			t.Fatalf("reading %d did not go out at once", k)
		}
	}
	if ctx.timers != 0 {
		t.Fatalf("unbatched sends armed %d timers", ctx.timers)
	}
}

// TestDataFrameAcksEveryReading checks per-tuple implicit acks: a
// multi-reading frame overheard from a lower hop acks every pending
// reading it carries, not only the first.
func TestDataFrameAcksEveryReading(t *testing.T) {
	auth := AuthorityFromSeed(42, 16)
	cfg := Config{BatchSize: 2, DataRetries: 2}
	relay := NewSensor(cfg, auth.MaterialFor(1))
	leaf := NewSensor(cfg, auth.MaterialFor(2))
	key := relay.ks.CandidateClusterKey
	for i, s := range []*Sensor{relay, leaf} {
		s.ks.JoinCluster(1, key)
		s.phase = PhaseOperational
		s.hop = uint16(i + 1)
	}
	ctx := &benchCtx{rng: xrand.New(7)}
	leaf.SendReading(ctx, []byte("a"))
	leaf.SendReading(ctx, []byte("b"))
	if n := len(leaf.pending); n != 2 || ctx.last == nil {
		t.Fatalf("leaf tracks %d pending readings (frame sent: %v), want 2 in one frame", n, ctx.last != nil)
	}
	sent := ctx.last
	ctx.last = nil
	relay.Receive(ctx, 2, sent)
	if ctx.last == nil {
		t.Fatal("relay did not forward the two-reading frame")
	}
	leaf.Receive(ctx, 1, ctx.last)
	if n := len(leaf.pending); n != 0 {
		t.Fatalf("%d of 2 readings still pending after the relay's frame", n)
	}
}

// TestBSOpenPathZeroAllocs pins the delivery hot path's allocation
// contract: once caches and scratch are warm, terminating an encrypted
// reading at the base station — outer open, inner open, arena copy,
// delivery record — performs zero heap allocations.
func TestBSOpenPathZeroAllocs(t *testing.T) {
	sn, bs, ctx := wireOperationalPair(t)
	payload := []byte("r:0123456789abcdef")
	step := func() {
		ctx.now += time.Millisecond
		ctx.last = nil
		if _, ok := sn.SendReading(ctx, payload); !ok {
			t.Fatal("sensor refused to send")
		}
		if ctx.last == nil {
			t.Fatal("sensor broadcast nothing")
		}
		bs.Receive(ctx, 1, ctx.last)
	}
	// Warm every cache past steady state: the dedup sets must reach
	// dedupCapacity so every insert evicts instead of growing the set.
	warmup := dedupCapacity + 500
	for i := 0; i < warmup; i++ {
		step()
	}
	if got := len(bs.Deliveries()); got != warmup {
		t.Fatalf("warmup delivered %d/%d readings", got, warmup)
	}
	// The deliveries log and its arena legitimately grow without bound;
	// give them headroom so the measurement sees only the open path.
	const runs = 400
	grown := make([]Delivery, len(bs.bs.deliveries), len(bs.bs.deliveries)+2*runs)
	copy(grown, bs.bs.deliveries)
	bs.bs.deliveries = grown

	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Fatalf("BS open path allocates %.2f allocs/op; want 0", avg)
	}
}

// TestDeliveryDataStableAcrossArenaGrowth is the retention audit for the
// arena that replaced per-packet AppendOpen(nil, ...) allocations: a
// Delivery.Data slice handed out early must stay byte-stable while the
// arena grows across multiple chunk boundaries, and every later delivery
// must carry its own correct plaintext (no aliasing between deliveries,
// no scribbling by the open scratch).
func TestDeliveryDataStableAcrossArenaGrowth(t *testing.T) {
	sn, bs, ctx := wireOperationalPair(t)

	expect := func(i int) []byte {
		buf := make([]byte, 64)
		for k := 0; k < len(buf); k += 8 {
			binary.BigEndian.PutUint64(buf[k:], uint64(i))
		}
		return buf
	}
	scratch := make([]byte, 64)
	// 2500 x 64 B = 160 KB of plaintext: crosses the 64 KB chunk boundary
	// twice.
	const total = 2500
	var firstData []byte
	var firstWant []byte
	for i := 0; i < total; i++ {
		copy(scratch, expect(i)) // reuse one buffer: the sender may recycle
		ctx.now += time.Millisecond
		ctx.last = nil
		sn.SendReading(ctx, scratch)
		bs.Receive(ctx, 1, ctx.last)
		if i == 0 {
			del := bs.Deliveries()
			if len(del) != 1 {
				t.Fatalf("first reading not delivered")
			}
			firstData = del[0].Data // deliberately NOT a copy
			firstWant = expect(0)
		}
	}
	del := bs.Deliveries()
	if len(del) != total {
		t.Fatalf("delivered %d/%d readings", len(del), total)
	}
	if !bytes.Equal(firstData, firstWant) {
		t.Fatalf("first delivery's Data mutated after arena growth:\n got %x\nwant %x", firstData, firstWant)
	}
	for i, dv := range del {
		if !bytes.Equal(dv.Data, expect(i)) {
			t.Fatalf("delivery %d corrupted:\n got %x\nwant %x", i, dv.Data, expect(i))
		}
	}
}
