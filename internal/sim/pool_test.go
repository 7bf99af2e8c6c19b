package sim

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
)

// runLog captures everything observable about a run: who delivered what to
// whom, in order, plus per-node energy. Two runs are equivalent iff their
// logs match byte for byte.
type runLog struct {
	froms   []node.ID
	packets [][]byte
	tx, rx  []int
}

// pooledScenario runs a lossy multi-sender rebroadcast storm — the shape
// that stresses every pool path (arena reuse across overlapping deliveries,
// event recycling under a deep queue, timers) — and returns its log.
func pooledScenario(t *testing.T, cfg Config) runLog {
	t.Helper()
	const n = 8
	g := lineGraph(n)
	bs := make([]*echo, n)
	behaviors := make([]node.Behavior, n)
	for i := range bs {
		bs[i] = &echo{rebroadcast: true}
		behaviors[i] = bs[i]
	}
	bs[0].sendOnStart = []byte("alpha-payload")
	bs[n-1].sendOnStart = []byte("omega")
	cfg.Seed = 77
	cfg.Loss = 0.2
	cfg.Jitter = time.Millisecond
	eng := newEngine(t, g, behaviors, cfg)
	eng.Boot(0)
	for p := 0; p < 40; p++ {
		p := p
		eng.Schedule(time.Duration(p)*time.Millisecond, func() {
			eng.hosts[p%n].Broadcast([]byte{byte(p), 'x', 'y'})
			eng.hosts[p%n].SetTimer(time.Millisecond, node.Tag(p))
		})
	}
	if _, err := eng.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	var log runLog
	for i, b := range bs {
		log.froms = append(log.froms, b.received...)
		log.packets = append(log.packets, b.packets...)
		log.tx = append(log.tx, eng.Meter(i).TxCount())
		log.rx = append(log.rx, eng.Meter(i).RxCount())
	}
	return log
}

// TestPooledMatchesUnpooled pins the byte-equivalence contract at the
// engine level: buffer and event pooling (and poisoning, which recycles
// more aggressively) must not change a single observable byte of a run.
func TestPooledMatchesUnpooled(t *testing.T) {
	pooled := pooledScenario(t, Config{})
	unpooled := pooledScenario(t, Config{DisablePooling: true})
	poisoned := pooledScenario(t, Config{PoisonRecycled: true})
	for name, got := range map[string]runLog{"DisablePooling": unpooled, "PoisonRecycled": poisoned} {
		if len(got.froms) != len(pooled.froms) {
			t.Fatalf("%s: %d deliveries vs %d pooled", name, len(got.froms), len(pooled.froms))
		}
		for i := range pooled.froms {
			if got.froms[i] != pooled.froms[i] {
				t.Fatalf("%s: delivery %d from %d, pooled saw %d", name, i, got.froms[i], pooled.froms[i])
			}
			if !bytes.Equal(got.packets[i], pooled.packets[i]) {
				t.Fatalf("%s: delivery %d payload %q, pooled saw %q", name, i, got.packets[i], pooled.packets[i])
			}
		}
		for i := range pooled.tx {
			if got.tx[i] != pooled.tx[i] || got.rx[i] != pooled.rx[i] {
				t.Fatalf("%s: node %d tx/rx %d/%d, pooled %d/%d",
					name, i, got.tx[i], got.rx[i], pooled.tx[i], pooled.rx[i])
			}
		}
	}
}

// TestPoisonRecycledClobbersRetainedPacket is the vet test for the buffer
// ownership contract: a Receive callback that illegally retains its pkt
// slice past return sees the bytes overwritten with the 0xDB poison
// pattern, turning a silent aliasing bug into a loud failure.
func TestPoisonRecycledClobbersRetainedPacket(t *testing.T) {
	g := lineGraph(2)
	var stolen []byte
	thief := behaviorFuncs{
		start:   func(node.Context) {},
		receive: func(_ node.Context, _ node.ID, pkt []byte) { stolen = pkt },
		timer:   func(node.Context, node.Tag) {},
	}
	sender := &echo{sendOnStart: []byte("secret")}
	eng := newEngine(t, g, []node.Behavior{sender, thief}, Config{PoisonRecycled: true})
	eng.Boot(0)
	if _, err := eng.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if stolen == nil {
		t.Fatal("thief never received a packet")
	}
	for i, b := range stolen {
		if b != 0xDB {
			t.Fatalf("retained byte %d = %#x, want 0xDB poison; retention went undetected", i, b)
		}
	}
}

// TestPoisonOffRetainedPacketIntact is the control for the vet test: the
// poison pattern comes from PoisonRecycled, not from recycling itself —
// without it a retained buffer keeps its bytes until reuse, which is
// exactly why retention bugs hide.
func TestPoisonOffRetainedPacketIntact(t *testing.T) {
	g := lineGraph(2)
	var stolen []byte
	thief := behaviorFuncs{
		start:   func(node.Context) {},
		receive: func(_ node.Context, _ node.ID, pkt []byte) { stolen = pkt },
		timer:   func(node.Context, node.Tag) {},
	}
	sender := &echo{sendOnStart: []byte("secret")}
	eng := newEngine(t, g, []node.Behavior{sender, thief}, Config{})
	eng.Boot(0)
	if _, err := eng.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if string(stolen) != "secret" {
		t.Fatalf("retained packet = %q", stolen)
	}
}

// TestDieAndBatteryDeathShareBookkeeping is the regression test for the
// Die() bypass bug: a behavior calling Context.Die used to flip the alive
// bit directly, skipping the deaths counter and the OnDeath callback that
// battery-accounting deaths go through. Both paths must now agree.
func TestDieAndBatteryDeathShareBookkeeping(t *testing.T) {
	reg := obs.NewRegistry()
	g := lineGraph(3)
	var deaths []int
	suicidal := behaviorFuncs{
		start:   func(ctx node.Context) { ctx.Die() },
		receive: func(node.Context, node.ID, []byte) {},
		timer:   func(node.Context, node.Tag) {},
	}
	spender := &echo{}
	eng := newEngine(t, g, []node.Behavior{spender, suicidal, &echo{}}, Config{
		Battery: 500,
		OnDeath: func(i int, _ time.Duration) { deaths = append(deaths, i) },
		Obs:     reg.Scope("test", 0),
	})
	eng.Boot(0)
	for k := 0; k < 50; k++ {
		k := k
		eng.Schedule(time.Duration(k)*time.Millisecond, func() {
			eng.hosts[0].Broadcast(make([]byte, 30))
		})
	}
	if _, err := eng.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if eng.Alive(0) || eng.Alive(1) {
		t.Fatalf("alive = %v/%v, want both dead", eng.Alive(0), eng.Alive(1))
	}
	// Node 1 died by Die, node 0 by battery; both must be observed.
	seen := map[int]bool{}
	for _, i := range deaths {
		seen[i] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("OnDeath observed %v, want nodes 0 and 1", deaths)
	}
	if got := eng.m.deaths.Value(); got != uint64(len(deaths)) {
		t.Fatalf("deaths counter = %d, OnDeath fired %d times", got, len(deaths))
	}
	// Engine.Kill is external destruction, not energy death: silent.
	before := eng.m.deaths.Value()
	eng.Kill(2)
	if eng.m.deaths.Value() != before {
		t.Fatal("Engine.Kill counted as an energy death")
	}
	// kill is idempotent: a dead node cannot die twice.
	eng.kill(&eng.hosts[1])
	if eng.m.deaths.Value() != before {
		t.Fatal("double death double-counted")
	}
}

// TestBroadcastDeliverAllocFree pins the tentpole at the engine level:
// once the pools are warm, a full broadcast → fan-out → deliver → recycle
// cycle allocates nothing.
func TestBroadcastDeliverAllocFree(t *testing.T) {
	g := lineGraph(5)
	behaviors := make([]node.Behavior, 5)
	sink := behaviorFuncs{
		start:   func(node.Context) {},
		receive: func(node.Context, node.ID, []byte) {},
		timer:   func(node.Context, node.Tag) {},
	}
	for i := range behaviors {
		behaviors[i] = sink
	}
	eng := newEngine(t, g, behaviors, Config{Jitter: time.Millisecond})
	eng.Boot(0)
	if _, err := eng.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 64)
	cycle := func() {
		eng.hosts[2].Broadcast(pkt) // middle of the line: two receivers
		if _, err := eng.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // warm the arena, event free-list, and queue capacity
	}
	if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
		t.Fatalf("steady-state broadcast-deliver cycle allocates %.1f times per run, want 0", avg)
	}
}

// TestPoisonRecycledJunksScratch extends the vet test to the host
// scratch: a behavior that keeps a scratch buffer or a decoded reading
// past its callback finds junk there at its next callback with
// PoisonRecycled set (or in a scratchpoison build), and its own bytes
// without.
func TestPoisonRecycledJunksScratch(t *testing.T) {
	for _, poisoned := range []bool{false, true} {
		var kept []byte
		var keptReading wire.Reading
		var seen []byte
		var seenOrigin uint32
		b := behaviorFuncs{
			start: func(ctx node.Context) {
				sc := ctx.Scratch()
				sc.TxBuf = append(sc.TxBuf[:0], "frame"...)
				sc.RxData.Readings = append(sc.RxData.Readings[:0], wire.Reading{Origin: 7, Seq: 1, Inner: sc.TxBuf})
				kept, keptReading = sc.TxBuf, sc.RxData.Readings[0]
				ctx.SetTimer(time.Millisecond, 1)
			},
			receive: func(node.Context, node.ID, []byte) {},
			timer: func(ctx node.Context, _ node.Tag) {
				seen = append([]byte(nil), kept...)
				seenOrigin = ctx.Scratch().RxData.Readings[:1][0].Origin
			},
		}
		eng := newEngine(t, lineGraph(1), []node.Behavior{b}, Config{PoisonRecycled: poisoned})
		eng.Boot(0)
		if _, err := eng.RunUntilIdle(100); err != nil {
			t.Fatal(err)
		}
		junked := string(seen) == "\xdb\xdb\xdb\xdb\xdb" && seenOrigin != keptReading.Origin
		if want := poisoned || scratchPoisonTag; junked != want {
			t.Fatalf("PoisonRecycled %v: retained scratch reads %q, reading origin %#x; junked %v, want %v",
				poisoned, seen, seenOrigin, junked, want)
		}
	}
}
