// Package sim is a deterministic discrete-event simulator for broadcast
// sensor networks — the replacement for the paper's SensorSimII testbed.
//
// The engine owns a virtual clock and a binary-heap event queue; node
// behaviors (internal/node.Behavior) run sequentially as their messages and
// timers fire, so a run is a pure function of the configuration seed.
// Event-time ties are broken by insertion sequence, which makes runs
// bit-reproducible across machines.
//
// The radio model is a broadcast medium over a unit-disk topology: one
// transmission reaches every graph neighbor after a propagation delay plus
// bounded random jitter, with optional independent per-link loss. Energy is
// charged per packet and per byte through internal/energy. This captures
// everything the paper's figures measure (message counts, key counts,
// cluster structure) without modeling PHY/MAC detail the paper does not
// report.
//
// # Buffer ownership
//
// The engine recycles both its event records and the per-receiver packet
// copies it hands to Behavior.Receive. The contract is strict: a packet
// slice passed to Receive (and the TraceEvent.Pkt slice passed to a Trace
// hook) is owned by the engine and valid only until that callback returns;
// code that needs the bytes longer must copy them. Config.PoisonRecycled
// turns violations into loud test failures, and Config.DisablePooling
// restores the old allocate-per-delivery behavior for A/B comparison —
// both engines produce byte-identical runs for any behavior honoring the
// contract.
package sim

import (
	"fmt"
	"time"

	"repro/internal/crypt"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Config parameterizes an Engine.
type Config struct {
	// Graph is the communication topology. Node i of the graph hosts
	// behavior i.
	Graph *topology.Graph
	// Seed drives all randomness (medium jitter/loss and every node's
	// private stream).
	Seed uint64
	// PropDelay is the fixed per-hop delivery latency. Defaults to 1ms —
	// the scale only matters relative to protocol timeouts.
	PropDelay time.Duration
	// Jitter is the maximum additional uniform random delivery delay,
	// modeling MAC contention. Defaults to 200µs.
	Jitter time.Duration
	// Loss is the independent per-link per-packet loss probability.
	Loss float64
	// Collisions enables the half-duplex collision model: a packet
	// occupies the receiver's radio for its airtime, and any packet
	// arriving while another reception is in progress corrupts both.
	// This models a slotless, CSMA-free MAC — the pessimistic end; real
	// sensor MACs sit between this and the default collision-free medium.
	Collisions bool
	// AirtimePerByte is how long one payload byte occupies the channel
	// (used only when Collisions is set). Defaults to 32µs/byte, the
	// 250 kbit/s of an 802.15.4 radio.
	AirtimePerByte time.Duration
	// Energy is the cost model; zero value means DefaultModel.
	Energy energy.Model
	// Battery, if positive, is each node's energy budget in µJ. A node
	// whose cumulative consumption exceeds it dies — the depletion
	// process that motivates the paper's node-addition mechanism
	// ("sensors usually have limited lifetime and usually die of energy
	// depletion", Section IV-E). Zero means unlimited.
	Battery float64
	// OnDeath, if non-nil, is called when a node dies of energy
	// depletion — whether the engine's battery accounting exceeded the
	// budget or the behavior declared its own death through Context.Die.
	OnDeath func(i int, at time.Duration)
	// Faults, if non-nil, is a deterministic fault-injection plan: node
	// crashes and reboots become engine events, and the plan's loss
	// processes (Gilbert–Elliott bursts, ramps, partitions) are consulted
	// for every delivery, in the same pre-airtime slot as Loss. All plan
	// randomness comes from a stream split off Seed, so (Seed, Faults)
	// fully determines the run.
	Faults *faults.Plan
	// OnCrash, if non-nil, observes plan-scheduled node crashes.
	OnCrash func(i int, at time.Duration)
	// Trace, if non-nil, observes every packet delivery attempt.
	Trace func(ev TraceEvent)
	// Obs, if non-nil, attaches the observability subsystem: medium and
	// engine counters plus crash/reboot events, labeled with the scope's
	// run/trial. Instrumentation draws no randomness and takes no
	// protocol-visible branches, so enabling it never changes a run.
	Obs *obs.Scope
	// DisablePooling turns off the engine's event free-list and packet
	// arena, making every delivery allocate fresh memory as the
	// pre-pooling engine did. Pooling is invisible to any behavior that
	// honors the buffer-ownership contract (see the package comment), so
	// this switch exists only for the equivalence tests that pin a
	// pooled and an unpooled engine to byte-identical runs, and as a
	// debugging escape hatch.
	DisablePooling bool
	// PoisonRecycled overwrites every recycled packet buffer with 0xDB
	// before reuse. A behavior or trace hook that illegally retains a
	// delivered packet past its callback observes the poison and
	// diverges, turning silent use-after-recycle bugs into loud test
	// failures. Ignored when DisablePooling is set.
	PoisonRecycled bool
	// Shards, when >= 1, runs the trial on the intra-trial sharded
	// engine: nodes are partitioned into Shards groups, each group's
	// event heap advances on its own goroutine in conservative epochs of
	// width PropDelay (the minimum radio latency, hence a safe
	// lookahead), and cross-shard deliveries travel through per-epoch
	// mailboxes. Shard mode uses a shard-count-invariant determinism
	// contract — per-sender medium streams and a canonical
	// (time, source lane, lane sequence) event order — so the output is
	// byte-identical at every Shards >= 1 (Shards=1 is the serial escape
	// hatch, running the same contract on the calling goroutine).
	// Shards=0 (the default) keeps the legacy single-heap engine, whose
	// output all pre-sharding golden tests pin. Switching between 0 and
	// >=1 is output-affecting, like changing a seed salt; see
	// docs/SCALING.md and docs/DETERMINISM.md.
	Shards int
	// ShardOf optionally assigns each graph node to a shard (len N(),
	// values in [0, Shards)). Nil assigns contiguous index ranges;
	// core.Deploy passes a spatial stripe assignment built from the
	// deployment geometry so most radio neighborhoods stay intra-shard.
	// The assignment affects only performance, never output: the shard
	// contract is invariant to where the cuts fall.
	ShardOf []int
}

// TraceEvent describes one packet delivery attempt for debugging and the
// message-accounting experiments.
type TraceEvent struct {
	At   time.Duration
	From node.ID
	To   node.ID
	Size int
	Lost bool
	// Pkt is the raw packet. It aliases an engine-owned buffer (the
	// sender's, which may itself be recycled protocol scratch) and is
	// only valid for the duration of the trace callback; hooks that need
	// it later must copy. Config.PoisonRecycled exists to catch hooks
	// that violate this.
	Pkt []byte
}

// Engine is the discrete-event simulator. It is not safe for concurrent
// use; the goroutine runtime lives in internal/live.
type Engine struct {
	cfg    Config
	now    time.Duration
	seq    uint64
	queue  eventQueue
	hosts  []*host
	medium *xrand.RNG
	inj    *faults.Injector
	m      simMetrics

	// freeEv is the event free-list: every dispatched event returns here
	// and is reused by the next push, so the steady-state event loop
	// stops allocating. pkts recycles the per-receiver delivery copies
	// under the same discipline.
	freeEv []*event
	pkts   pktArena

	// keys is the keyed-sealer table every host shares, across all
	// shards in shard mode.
	keys *crypt.Keyring

	// Shard-mode state (Config.Shards >= 1; see shard.go). root is kept
	// so per-sender medium streams can be split lazily; lookahead is the
	// conservative epoch width (= PropDelay, the minimum cross-shard
	// delivery latency). In shard mode e.queue holds only coordinator
	// (global) events — Schedule/Do closures — which run between epochs.
	sharded   bool
	root      *xrand.RNG
	lookahead time.Duration
	shards    []*shard
	shardOf   []int32
	cbScratch []cbRec
}

// simMetrics holds the engine's counters. With observability off every
// field is nil and each hook is a single nil check.
type simMetrics struct {
	events     *obs.Counter
	tx         *obs.Counter
	txBytes    *obs.Counter
	rx         *obs.Counter
	lost       *obs.Counter
	collisions *obs.Counter
	crashes    *obs.Counter
	reboots    *obs.Counter
	deaths     *obs.Counter

	// Shard-mode instrumentation.
	epochs *obs.Counter
	xmsgs  *obs.Counter
	stall  *obs.Histogram
	util   *obs.Histogram
}

func newSimMetrics(r *obs.Registry) simMetrics {
	return simMetrics{
		events:     r.Counter("sim_events_total", "discrete events processed by the engine"),
		tx:         r.Counter("sim_tx_total", "packets broadcast onto the medium"),
		txBytes:    r.Counter("sim_tx_bytes_total", "payload bytes broadcast onto the medium"),
		rx:         r.Counter("sim_rx_total", "packets decoded by a receiver"),
		lost:       r.Counter("sim_lost_total", "per-link deliveries dropped by loss or a fault plan"),
		collisions: r.Counter("sim_collisions_total", "packets destroyed by the half-duplex collision model"),
		crashes:    r.Counter("sim_crashes_total", "node crashes (fault plan or scenario)"),
		reboots:    r.Counter("sim_reboots_total", "node reboots after a crash"),
		deaths:     r.Counter("sim_battery_deaths_total", "nodes dead of energy depletion (battery accounting or Context.Die)"),
		epochs:     r.Counter("sim_epochs_total", "conservative epochs executed by the sharded engine"),
		xmsgs:      r.Counter("sim_xshard_msgs_total", "cross-shard deliveries exchanged through epoch mailboxes"),
		stall:      r.Histogram("sim_shard_stall_seconds", "wall-clock spread between the first and last shard finishing an epoch (merge stall)", []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}),
		util:       r.Histogram("sim_shard_util", "per-epoch shard utilization: events processed divided by shards times the busiest shard's events", []float64{0.25, 0.5, 0.75, 0.9, 1}),
	}
}

// faultStream is the Split label of the fault injector's RNG. Node i uses
// label 1+i and the medium uses 0, so any label above every representable
// node index is free.
const faultStream = uint64(1) << 40

// mediumLaneBase is the Split label base for shard mode's per-sender
// medium streams: sender i draws its loss and jitter variates from
// Split(mediumLaneBase + i) instead of the legacy shared Split(0) stream.
// Per-sender streams are what make the radio randomness independent of
// the global interleaving of transmissions — the heart of the
// shard-count-invariance contract.
const mediumLaneBase = uint64(1) << 41

// eventKind discriminates the engine's typed events. The hot-path kinds
// (delivery, timer, collidable reception) carry their operands in the
// event record itself instead of a freshly allocated closure, which is
// what lets the free-list make the event loop allocation-free.
type eventKind uint8

const (
	evFunc    eventKind = iota // generic scheduled function (Schedule, Boot)
	evDeliver                  // collision-free packet delivery to h
	evRxBegin                  // collision model: packet starts occupying h's radio
	evRxEnd                    // collision model: airtime over, deliver if intact
	evTimer                    // behavior timer tid on h

	// Shard-mode kinds (see shard.go). They carry the canonical
	// (at, src, seq) ordering key instead of the legacy global sequence.
	evStart    // behavior Start on h at boot time
	evSDeliver // shard delivery: fault-drop decided receiver-side at arrival
	evSCrash   // fault-plan crash of h
	evSReboot  // fault-plan reboot of h
)

type event struct {
	at   time.Duration
	seq  uint64
	kind eventKind
	fn   func()
	h    *host
	from node.ID
	pkt  []byte
	rx   *reception
	tid  node.TimerID

	// Shard-mode key and payload extensions. src is the owning lane
	// (the graph index of the host whose counter issued seq; always 0 on
	// the legacy engine, so its queue key reduces to (at, seq)); txAt and
	// lossLost carry a shard delivery's transmission time and sender-side
	// Config.Loss outcome across the mailbox.
	src      int32
	txAt     time.Duration
	lossLost bool
}

// pktArena recycles the per-receiver packet copies deliverFrom makes.
// Buffers are handed to Behavior.Receive and reclaimed as soon as the
// callback returns; see the package comment for the ownership contract.
type pktArena struct {
	free     [][]byte
	disabled bool
	poison   bool
}

func (a *pktArena) get(n int) []byte {
	if a.disabled {
		return make([]byte, n)
	}
	if last := len(a.free) - 1; last >= 0 {
		b := a.free[last]
		a.free[last] = nil
		a.free = a.free[:last]
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this packet: drop it and size up. Packet sizes
		// are bounded, so the arena converges to max-size buffers.
	}
	c := n
	if c < 128 {
		c = 128
	}
	return make([]byte, n, c)
}

func (a *pktArena) put(b []byte) {
	if a.disabled || cap(b) == 0 {
		return
	}
	if a.poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
	a.free = append(a.free, b)
}

// host adapts one behavior to the engine and implements node.Context.
type host struct {
	eng      *Engine
	id       node.ID
	idx      int
	behavior node.Behavior
	rng      *xrand.RNG
	meter    energy.Meter
	alive    bool
	started  bool

	// timers holds each armed timer with its tag; presence in the slice
	// is the armed/cancelled state. Timer IDs are handed out in
	// increasing order, so appending keeps the slice sorted and lookups
	// binary-search it — a node arms only a handful of timers at once,
	// and the flat layout beats a per-host map's bucket overhead at the
	// 10^6-host scale.
	timers  []timerRec
	nextTID node.TimerID

	// Collision-model state: the reception currently occupying the
	// radio, and how many packets collisions have destroyed here.
	rxCurrent  *reception
	collisions int

	// immortal exempts the node from battery death (mains-powered base
	// stations).
	immortal bool

	// Shard-mode state: the owning shard, the lazily split per-sender
	// medium stream, and the per-host lane sequence counter that
	// tie-breaks this host's events in the canonical order. lseq is only
	// ever touched by the owning shard's goroutine (or by the
	// coordinator while every shard is at a barrier).
	sh   *shard
	med  *xrand.RNG
	lseq uint64
}

// reception is one in-progress packet arrival under the collision model.
type reception struct {
	endsAt  time.Duration
	corrupt bool
}

// New builds an engine hosting one behavior per graph node. behaviors[i]
// runs at graph node i with ID node.ID(i). Behaviors may be nil for nodes
// that exist in the topology but are never booted (reserved positions for
// late deployment).
func New(cfg Config, behaviors []node.Behavior) (*Engine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sim: Config.Graph is required")
	}
	if len(behaviors) != cfg.Graph.N() {
		return nil, fmt.Errorf("sim: %d behaviors for %d graph nodes", len(behaviors), cfg.Graph.N())
	}
	if cfg.PropDelay == 0 {
		cfg.PropDelay = time.Millisecond
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 200 * time.Microsecond
	}
	if cfg.AirtimePerByte == 0 {
		cfg.AirtimePerByte = 32 * time.Microsecond // 250 kbit/s
	}
	if (cfg.Energy == energy.Model{}) {
		cfg.Energy = energy.DefaultModel()
	}
	root := xrand.New(cfg.Seed)
	eng := &Engine{
		cfg:    cfg,
		medium: root.Split(0),
		m:      newSimMetrics(cfg.Obs.Registry()),
		keys:   crypt.NewKeyring(),
	}
	eng.pkts.disabled = cfg.DisablePooling
	eng.pkts.poison = cfg.PoisonRecycled
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Graph.N()); err != nil {
			return nil, err
		}
		eng.inj = faults.NewInjector(cfg.Faults, root.Split(faultStream))
		eng.inj.SetMetrics(faults.NewMetrics(cfg.Obs.Registry()))
		eng.inj.SetLocator(locatorFor(cfg.Graph))
	}
	eng.hosts = make([]*host, len(behaviors))
	for i, b := range behaviors {
		eng.hosts[i] = &host{
			eng:      eng,
			id:       node.ID(i),
			idx:      i,
			behavior: b,
			rng:      root.Split(1 + uint64(i)),
			alive:    b != nil,
		}
	}
	if cfg.Shards > 0 {
		if err := eng.setupShards(root); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// newEvent takes an event record from the free-list (or allocates one)
// and stamps it with the next tie-break sequence number.
func (e *Engine) newEvent(at time.Duration) *event {
	var ev *event
	if last := len(e.freeEv) - 1; last >= 0 {
		ev = e.freeEv[last]
		e.freeEv[last] = nil
		e.freeEv = e.freeEv[:last]
	} else {
		ev = &event{}
	}
	e.seq++
	ev.at = at
	ev.seq = e.seq
	return ev
}

// recycle clears a dispatched event and returns it to the free-list.
func (e *Engine) recycle(ev *event) {
	if e.cfg.DisablePooling {
		return
	}
	*ev = event{}
	e.freeEv = append(e.freeEv, ev)
}

// Schedule runs fn at the given absolute virtual time (or immediately next
// if t is in the past). External actors — experiment scripts, the
// adversary — use this to interleave with protocol events.
func (e *Engine) Schedule(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.push(t, fn)
}

func (e *Engine) push(at time.Duration, fn func()) {
	ev := e.newEvent(at)
	ev.kind = evFunc
	ev.fn = fn
	e.queue.push(ev)
}

// Boot schedules behavior Start callbacks at time t for every alive,
// not-yet-started node, and turns the fault plan's crash/reboot events
// into engine events. Call once after New (t=0 for the initial
// deployment); late-deployed nodes are booted individually with BootNode.
func (e *Engine) Boot(t time.Duration) {
	for i := range e.hosts {
		h := e.hosts[i]
		if h.alive && !h.started {
			e.bootHost(h, t)
		}
	}
	if e.inj != nil {
		for _, ev := range e.inj.CrashRebootEvents() {
			ev := ev
			if e.sharded {
				// Crash/reboot land on the target's own lane so their
				// order against the node's other events is canonical.
				h := e.hosts[ev.Node]
				kind := evSCrash
				if ev.Kind == faults.KindReboot {
					kind = evSReboot
				}
				h.sh.pushHostEvent(ev.At, h, kind)
				continue
			}
			switch ev.Kind {
			case faults.KindCrash:
				e.push(ev.At, func() { e.Crash(ev.Node) })
			case faults.KindReboot:
				e.push(ev.At, func() { e.Reboot(ev.Node) })
			}
		}
	}
}

// BootNode installs (or replaces) the behavior at graph node i and
// schedules its Start at time t. It is how late-deployed sensors
// (Section IV-E) enter the network: the position was reserved in the
// topology, the radio comes alive at t.
func (e *Engine) BootNode(i int, b node.Behavior, t time.Duration) {
	h := e.hosts[i]
	h.behavior = b
	h.alive = true
	h.started = false
	e.bootHost(h, t)
}

func (e *Engine) bootHost(h *host, t time.Duration) {
	h.started = true
	if e.sharded {
		h.sh.pushHostEvent(t, h, evStart)
		return
	}
	e.push(t, func() {
		if h.alive {
			h.behavior.Start(h)
		}
	})
}

// dispatch runs one popped event and returns its record to the free-list.
func (e *Engine) dispatch(ev *event) {
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evDeliver:
		e.runDeliver(ev.h, ev.from, ev.pkt)
	case evRxBegin:
		e.runRxBegin(ev.h, ev.rx)
	case evRxEnd:
		e.runRxEnd(ev.h, ev.from, ev.pkt, ev.rx)
	case evTimer:
		e.runTimer(ev.h, ev.tid)
	}
	e.recycle(ev)
}

// Run processes events in time order until the queue is empty or the
// virtual clock would exceed until. It returns the number of events
// processed.
func (e *Engine) Run(until time.Duration) int {
	if e.sharded {
		n, _ := e.runSharded(until, false, 0)
		return n
	}
	processed := 0
	for len(e.queue) > 0 && e.queue[0].at <= until {
		next := e.queue.pop()
		e.now = next.at
		e.dispatch(next)
		processed++
		e.m.events.Inc()
	}
	if e.now < until {
		e.now = until
	}
	return processed
}

// RunUntilIdle drains every pending event regardless of time and returns
// the number processed. maxEvents guards against livelock (<=0 means no
// limit); exceeding it returns an error.
func (e *Engine) RunUntilIdle(maxEvents int) (int, error) {
	if e.sharded {
		return e.runSharded(0, true, maxEvents)
	}
	processed := 0
	for len(e.queue) > 0 {
		next := e.queue.pop()
		e.now = next.at
		e.dispatch(next)
		processed++
		e.m.events.Inc()
		if maxEvents > 0 && processed > maxEvents {
			return processed, fmt.Errorf("sim: exceeded %d events; protocol not quiescing", maxEvents)
		}
	}
	return processed, nil
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	n := len(e.queue)
	for _, s := range e.shards {
		n += len(s.queue)
		for _, out := range s.out {
			n += len(out)
		}
	}
	return n
}

// ShardCount returns the number of shards the engine runs on (0 for the
// legacy single-heap engine).
func (e *Engine) ShardCount() int { return len(e.shards) }

// N returns the number of hosted nodes.
func (e *Engine) N() int { return len(e.hosts) }

// Meter returns node i's energy meter (valid even after death).
func (e *Engine) Meter(i int) *energy.Meter { return &e.hosts[i].meter }

// Alive reports whether node i is operating.
func (e *Engine) Alive(i int) bool { return e.hosts[i].alive }

// Behavior returns the behavior hosted at node i (nil if none).
func (e *Engine) Behavior(i int) node.Behavior { return e.hosts[i].behavior }

// Kill removes node i from the network immediately: no further callbacks,
// no forwarding — the simulator's model of external destruction. Unlike a
// battery death or Context.Die it is silent: no death counter, no OnDeath
// callback (the scenario that called Kill already knows).
func (e *Engine) Kill(i int) { e.hosts[i].alive = false }

// Crash is the fault model's node failure: the radio closes, every
// pending timer dies with the volatile timer state, and any in-progress
// reception is abandoned. Unlike Kill it is designed to pair with Reboot —
// a rebooted node must not see timers armed before the crash.
func (e *Engine) Crash(i int) {
	h := e.hosts[i]
	if !h.alive {
		return
	}
	h.alive = false
	h.timers = h.timers[:0]
	h.rxCurrent = nil
	e.m.crashes.Inc()
	e.cfg.Obs.Emit(e.now, obs.KindCrash, i, 0, "")
	if e.cfg.OnCrash != nil {
		e.cfg.OnCrash(i, e.now)
	}
}

// Reboot revives a crashed node at the current virtual time: the radio
// reopens and the behavior gets a restart callback — Reboot if it
// implements node.Rebooter (warm restart: key material in stable storage
// survived, volatile timers did not), Start otherwise. Rebooting an alive
// or never-booted node is a no-op.
func (e *Engine) Reboot(i int) {
	h := e.hosts[i]
	if h.alive || h.behavior == nil || !h.started {
		return
	}
	h.alive = true
	e.m.reboots.Inc()
	e.cfg.Obs.Emit(e.now, obs.KindReboot, i, 0, "")
	if e.sharded {
		// The restart callback runs with the host's Context, whose clock
		// is the owning shard's; align it with coordinator time first.
		e.syncShardClocks()
	}
	if rb, ok := h.behavior.(node.Rebooter); ok {
		rb.Reboot(h)
		return
	}
	h.behavior.Start(h)
}

// Collisions returns how many packets the collision model destroyed at
// node i (zero when the model is disabled).
func (e *Engine) Collisions(i int) int { return e.hosts[i].collisions }

// Graph returns the underlying topology.
func (e *Engine) Graph() *topology.Graph { return e.cfg.Graph }

// locatorFor adapts the topology to the fault injector's position
// locator: geometry-scoped events (moving partitions) wrap on toroidal
// regions and sweep off the edge on planar ones. Positions are read at
// drop time, so mobile topologies are reflected move-by-move.
func locatorFor(g *topology.Graph) (float64, func(i int) (x, y float64)) {
	side := 0.0
	if g.Metric() == geom.Torus {
		side = g.Side()
	}
	return side, func(i int) (x, y float64) {
		p := g.Pos(i)
		return p.X, p.Y
	}
}

// Do schedules fn to run at virtual time t with node i's Context, on the
// engine's event loop — the hook through which experiment scripts trigger
// application-level actions (send a reading, start a refresh, issue a
// revocation) without breaking the single-threaded behavior contract.
// fn is not invoked if the node is dead at t.
func (e *Engine) Do(t time.Duration, i int, fn func(node.Context)) {
	h := e.hosts[i]
	e.Schedule(t, func() {
		if h.alive {
			fn(h)
		}
	})
}

// InjectAt broadcasts pkt from the radio position of graph node at,
// claiming link-layer sender fakeFrom. This is the adversary's transmitter:
// it spends no defender energy and reaches exactly the nodes a real radio
// at that position would reach.
func (e *Engine) InjectAt(at int, fakeFrom node.ID, pkt []byte) {
	if e.sharded {
		// Injections originate on the coordinator between epochs; the
		// radio position's host owns the lane and the medium stream, so
		// the fan-out is identical to a real transmission from there.
		e.syncShardClocks()
		e.hosts[at].sh.deliverFrom(e.hosts[at], fakeFrom, pkt)
		return
	}
	e.deliverFrom(at, fakeFrom, pkt)
}

// broadcast carries a host transmission onto the medium.
func (e *Engine) broadcast(h *host, pkt []byte) {
	e.m.tx.Inc()
	e.m.txBytes.Add(uint64(len(pkt)))
	h.meter.ChargeTx(e.cfg.Energy, len(pkt))
	// The transmission itself completes even if it drains the battery;
	// the node is dead afterwards.
	if e.sharded {
		h.sh.deliverFrom(h, h.id, pkt)
	} else {
		e.deliverFrom(h.idx, h.id, pkt)
	}
	e.checkBattery(h)
}

// SetImmortal exempts node i from battery death — the mains-powered base
// station in lifetime experiments.
func (e *Engine) SetImmortal(i int) { e.hosts[i].immortal = true }

// checkBattery kills the host if its cumulative consumption exceeds the
// configured budget.
func (e *Engine) checkBattery(h *host) {
	if e.cfg.Battery <= 0 || !h.alive || h.immortal {
		return
	}
	if h.meter.Total() > e.cfg.Battery {
		e.kill(h)
	}
}

// kill is the single death path for energy depletion: both the engine's
// battery accounting (checkBattery) and a behavior's own Context.Die
// route through it, so the death counter and the OnDeath callback can
// never disagree about how many nodes died.
func (e *Engine) kill(h *host) {
	if !h.alive {
		return
	}
	h.alive = false
	e.m.deaths.Inc()
	if e.cfg.OnDeath != nil {
		if h.sh != nil {
			// Shard mode: callbacks are buffered and replayed on the
			// coordinator in canonical order at the next barrier.
			h.sh.bufferCallback(cbRec{kind: cbDeath, at: h.sh.now, node: int32(h.idx)})
			return
		}
		e.cfg.OnDeath(h.idx, e.now)
	}
}

// deliverFrom fans a transmission at graph position idx out to every
// radio neighbor. Each receiver gets a private arena copy, so neither the
// sender's later reuse of its buffer nor another receiver's in-place
// mutation can corrupt a delivery — the same isolation a real radio
// provides; the copy returns to the arena when Receive returns.
func (e *Engine) deliverFrom(idx int, from node.ID, pkt []byte) {
	for _, nb := range e.cfg.Graph.Neighbors(idx) {
		rcv := e.hosts[nb]
		// Loss ordering contract (pinned by TestLossBeforeCollision*):
		// fault-plan drops and independent per-link loss are both decided
		// at transmission time, before the packet would occupy the
		// receiver's radio — a lost packet can therefore never collide
		// with, nor corrupt, another reception. The fault injector is
		// consulted first so its chains advance on every arrival
		// regardless of the Loss draw's outcome.
		lost := e.inj != nil && e.inj.Drop(e.now, idx, int(nb))
		lost = (e.cfg.Loss > 0 && e.medium.Bool(e.cfg.Loss)) || lost
		// The jitter draw is made even for lost packets, so the medium
		// stream consumed per (transmission, receiver) is a constant two
		// variates: loss outcomes — whether from Config.Loss or a fault
		// plan — can never shift later draws. This is what keeps a fault
		// plan targeting one receiver from perturbing the radio behavior
		// every other receiver observes (TestFaultPlanPreservesMediumStream).
		delay := e.cfg.PropDelay
		if jit := e.scaledJitter(); jit > 0 {
			delay += time.Duration(e.medium.Uint64n(uint64(jit)))
		}
		if e.cfg.Trace != nil {
			e.cfg.Trace(TraceEvent{At: e.now, From: from, To: rcv.id, Size: len(pkt), Lost: lost, Pkt: pkt})
		}
		if lost {
			e.m.lost.Inc()
			continue
		}
		copied := e.pkts.get(len(pkt))
		copy(copied, pkt)
		if e.cfg.Collisions {
			e.scheduleCollidableRx(rcv, from, copied, e.now+delay)
			continue
		}
		ev := e.newEvent(e.now + delay)
		ev.kind = evDeliver
		ev.h = rcv
		ev.from = from
		ev.pkt = copied
		e.queue.push(ev)
	}
}

// runDeliver completes a collision-free delivery and reclaims the packet
// buffer once the receiver's callback is done with it.
func (e *Engine) runDeliver(rcv *host, from node.ID, pkt []byte) {
	if rcv.alive {
		e.m.rx.Inc()
		rcv.meter.ChargeRx(e.cfg.Energy, len(pkt))
		rcv.behavior.Receive(rcv, from, pkt)
		e.checkBattery(rcv)
	}
	e.pkts.put(pkt)
}

// scaledJitter returns the medium jitter with any active fault-plan
// jitter scaling applied.
func (e *Engine) scaledJitter() time.Duration {
	jit := e.cfg.Jitter
	if e.inj != nil && jit > 0 {
		jit = time.Duration(float64(jit) * e.inj.JitterScale(e.now))
	}
	return jit
}

// scheduleCollidableRx implements the half-duplex collision model: the
// packet occupies rcv's radio from arrival until arrival+airtime; if it
// overlaps another reception, both are corrupted and neither is
// delivered. Receive energy is charged only for packets that decode —
// corrupted receptions are dropped before the full-packet receive cost.
// The end-of-airtime event owns the packet buffer.
func (e *Engine) scheduleCollidableRx(rcv *host, from node.ID, pkt []byte, arrival time.Duration) {
	airtime := e.cfg.AirtimePerByte * time.Duration(len(pkt))
	if airtime <= 0 {
		airtime = time.Microsecond
	}
	rx := &reception{endsAt: arrival + airtime}
	begin := e.newEvent(arrival)
	begin.kind = evRxBegin
	begin.h = rcv
	begin.rx = rx
	e.queue.push(begin)
	end := e.newEvent(arrival + airtime)
	end.kind = evRxEnd
	end.h = rcv
	end.from = from
	end.pkt = pkt
	end.rx = rx
	e.queue.push(end)
}

// runRxBegin starts occupying the receiver's radio, corrupting any
// overlapping reception.
func (e *Engine) runRxBegin(rcv *host, rx *reception) {
	if !rcv.alive {
		return
	}
	if cur := rcv.rxCurrent; cur != nil && e.now < cur.endsAt {
		// Overlap: the in-progress reception and this one are both
		// destroyed.
		if !cur.corrupt {
			cur.corrupt = true
			rcv.collisions++
			e.m.collisions.Inc()
		}
		rx.corrupt = true
		rcv.collisions++
		e.m.collisions.Inc()
		if rx.endsAt > cur.endsAt {
			rcv.rxCurrent = rx // radio stays jammed until the longer one ends
		}
		return
	}
	rcv.rxCurrent = rx
}

// runRxEnd delivers a collidable reception that survived its airtime and
// reclaims the packet buffer.
func (e *Engine) runRxEnd(rcv *host, from node.ID, pkt []byte, rx *reception) {
	if rcv.alive && !rx.corrupt {
		e.m.rx.Inc()
		rcv.meter.ChargeRx(e.cfg.Energy, len(pkt))
		rcv.behavior.Receive(rcv, from, pkt)
		e.checkBattery(rcv)
	}
	e.pkts.put(pkt)
}

// runTimer fires behavior timer tid on h unless it was cancelled (absent
// from the armed set) or the host died.
func (e *Engine) runTimer(h *host, tid node.TimerID) {
	tag, ok := h.takeTimer(tid)
	if !ok {
		return
	}
	if !h.alive {
		return
	}
	h.behavior.Timer(h, tag)
}

// timerRec is one armed timer; host.timers keeps them sorted by tid.
type timerRec struct {
	tid node.TimerID
	tag node.Tag
}

// timerIdx binary-searches the armed set for tid, returning -1 if it
// was never armed or has been cancelled/fired.
func (h *host) timerIdx(tid node.TimerID) int {
	lo, hi := 0, len(h.timers)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.timers[mid].tid < tid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.timers) && h.timers[lo].tid == tid {
		return lo
	}
	return -1
}

// takeTimer removes tid from the armed set, returning its tag.
func (h *host) takeTimer(tid node.TimerID) (node.Tag, bool) {
	i := h.timerIdx(tid)
	if i < 0 {
		return 0, false
	}
	tag := h.timers[i].tag
	h.timers = append(h.timers[:i], h.timers[i+1:]...)
	return tag, true
}

// --- node.Context implementation ---

// ID implements node.Context.
func (h *host) ID() node.ID { return h.id }

// Now implements node.Context. In shard mode the host's clock is its
// owning shard's (synced to coordinator time for between-epoch callbacks).
func (h *host) Now() time.Duration {
	if h.sh != nil {
		return h.sh.now
	}
	return h.eng.now
}

// Broadcast implements node.Context.
func (h *host) Broadcast(pkt []byte) {
	if !h.alive {
		return
	}
	h.eng.broadcast(h, pkt)
}

// SetTimer implements node.Context.
func (h *host) SetTimer(d time.Duration, tag node.Tag) node.TimerID {
	h.nextTID++
	tid := h.nextTID
	h.timers = append(h.timers, timerRec{tid, tag}) // tids increase: stays sorted
	if h.sh != nil {
		ev := h.sh.pushHostEvent(h.sh.now+d, h, evTimer)
		ev.tid = tid
		return tid
	}
	e := h.eng
	ev := e.newEvent(e.now + d)
	ev.kind = evTimer
	ev.h = h
	ev.tid = tid
	e.queue.push(ev)
	return tid
}

// CancelTimer implements node.Context.
func (h *host) CancelTimer(id node.TimerID) {
	if i := h.timerIdx(id); i >= 0 {
		h.timers = append(h.timers[:i], h.timers[i+1:]...)
	}
}

// Rand implements node.Context.
func (h *host) Rand() *xrand.RNG { return h.rng }

// ChargeCipher implements node.Context.
func (h *host) ChargeCipher(n int) {
	h.meter.ChargeCipher(h.eng.cfg.Energy, n)
	h.eng.checkBattery(h)
}

// ChargeMAC implements node.Context.
func (h *host) ChargeMAC(n int) {
	h.meter.ChargeMAC(h.eng.cfg.Energy, n)
	h.eng.checkBattery(h)
}

// Keyring implements node.Context: one ring per engine, shared by
// every shard.
func (h *host) Keyring() *crypt.Keyring { return h.eng.keys }

// Die implements node.Context: the behavior's own declaration of energy
// death. It routes through the same bookkeeping as a battery-accounting
// death, so the deaths counter and OnDeath observe it.
func (h *host) Die() { h.eng.kill(h) }
