// Package sim is a deterministic discrete-event simulator for broadcast
// sensor networks — the replacement for the paper's SensorSimII testbed.
//
// The engine owns a virtual clock and binary-heap event queues; node
// behaviors (internal/node.Behavior) run sequentially as their messages and
// timers fire, so a run is a pure function of the configuration seed.
// Event-time ties are broken by a canonical (time, source lane, lane
// sequence) key, which makes runs bit-reproducible across machines and
// across every Config.Shards setting (see shard.go).
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
// allocates fresh memory for every record instead — both produce
// byte-identical runs for any behavior honoring the contract.
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
	// OnCrash, if non-nil, observes node crashes (plan-scheduled or
	// through Engine.Crash).
	OnCrash func(i int, at time.Duration)
	// Trace, if non-nil, observes every packet delivery attempt. A
	// transmission's deliveries are reported together, in neighbor
	// order, once every receiver has decided its fate; transmissions are
	// reported in non-decreasing transmission time.
	Trace func(ev TraceEvent)
	// Obs, if non-nil, attaches the observability subsystem: medium and
	// engine counters plus crash/reboot events, labeled with the scope's
	// run/trial. Instrumentation draws no randomness and takes no
	// protocol-visible branches, so enabling it never changes a run.
	Obs *obs.Scope
	// DisablePooling turns off the engine's event free-lists, packet
	// arenas and trace-record reuse, making every delivery allocate fresh
	// memory. Pooling is invisible to any behavior that honors the
	// buffer-ownership contract (see the package comment), so this
	// switch exists as the reference the pool-equivalence tests pin
	// pooled runs against, and as a debugging escape hatch.
	DisablePooling bool
	// PoisonRecycled overwrites every recycled packet buffer with 0xDB
	// before reuse. A behavior or trace hook that illegally retains a
	// delivered packet past its callback observes the poison and
	// diverges, turning silent use-after-recycle bugs into loud test
	// failures. Ignored when DisablePooling is set.
	PoisonRecycled bool
	// Shards is how many goroutines advance the run. Nodes are
	// partitioned into Shards groups, each group's event heap advances
	// on its own goroutine in conservative epochs of width PropDelay
	// (the minimum radio latency, hence a safe lookahead), and
	// cross-shard deliveries travel through per-epoch mailboxes. 0 and 1
	// both run the single shard inline on the calling goroutine. Shards
	// is a pure parallelism setting: the output is byte-identical at
	// every value (see docs/SCALING.md and docs/DETERMINISM.md).
	Shards int
	// ShardOf optionally assigns each graph node to a shard (len N(),
	// values in [0, max(Shards, 1))). Nil assigns contiguous index
	// ranges; core.Deploy passes a spatial stripe assignment built from
	// the deployment geometry so most radio neighborhoods stay
	// intra-shard. The assignment affects only performance, never
	// output: the shard contract is invariant to where the cuts fall.
	ShardOf []int
}

// TraceEvent describes one packet delivery attempt for debugging and the
// message-accounting experiments.
type TraceEvent struct {
	// At is the transmission time.
	At   time.Duration
	From node.ID
	To   node.ID
	Size int
	Lost bool
	// Pkt is the raw packet. It aliases an engine-owned copy shared by
	// the transmission's deliveries and is only valid for the duration
	// of the trace callback; hooks that need it later must copy.
	// Config.PoisonRecycled exists to catch hooks that violate this.
	Pkt []byte
}

// Engine is the discrete-event simulator. It is not safe for concurrent
// use; the goroutine runtime lives in internal/live.
//
// Events live on lanes. Each host's lane holds its starts, timers,
// deliveries it sent, crashes and reboots, on the owning shard's heap;
// the coordinator lane holds Schedule/Do closures, which run between
// epochs and before shard events at equal times. See shard.go.
type Engine struct {
	cfg   Config
	now   time.Duration
	seq   uint64     // coordinator lane sequence
	queue eventQueue // coordinator lane
	free  evPool     // coordinator event records
	hosts []*host
	m     simMetrics

	// keys is the keyed-sealer table every host shares, across all
	// shards.
	keys *crypt.Keyring

	// root is kept so per-sender medium streams can be split lazily.
	root   *xrand.RNG
	shards []*shard

	// cbScratch and traces hold buffered user callbacks between
	// barriers: traces keeps the trace records not yet replayed, in
	// canonical order.
	cbScratch []cbRec
	traces    []*txTrace
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

	// Scheduler instrumentation.
	epochs *obs.Counter
	xmsgs  *obs.Counter
	stall  *obs.Histogram
	util   *obs.Histogram
}

func newSimMetrics(r *obs.Registry) simMetrics {
	return simMetrics{
		events:     r.Counter("sim_events_total", "discrete events processed by the engine"),
		tx:         r.Counter("sim_tx_total", "transmissions onto the medium (broadcasts and SendTo unicasts)"),
		txBytes:    r.Counter("sim_tx_bytes_total", "payload bytes transmitted onto the medium"),
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
// label 1+i for its private stream and mediumLaneBase+i for its medium
// stream, so any label above every representable node index and below
// mediumLaneBase is free.
const faultStream = uint64(1) << 40

// mediumLaneBase is the Split label base for the per-sender medium
// streams: sender i draws its loss and jitter variates from
// Split(mediumLaneBase + i). Per-sender streams are what make the radio
// randomness independent of the global interleaving of transmissions —
// the heart of the shard-count-invariance contract.
const mediumLaneBase = uint64(1) << 41

// eventKind discriminates the engine's typed events. The hot-path kinds
// (delivery, timer, end of airtime) carry their operands in the event
// record itself instead of a freshly allocated closure, which is what
// lets the free-lists make the event loop allocation-free.
type eventKind uint8

const (
	evFunc   eventKind = iota // coordinator closure (Schedule, Do)
	evStart                   // behavior Start on h at boot time
	evArrive                  // delivery: fault drop decided receiver-side at arrival
	evRxEnd                   // collision model: airtime over, deliver if intact
	evTimer                   // behavior timer tid on h
	evCrash                   // fault-plan crash of h
	evReboot                  // fault-plan reboot of h
)

type event struct {
	// Queue key (see eventQueue): src is the owning lane — the graph
	// index of the host whose counter issued seq, 0 on the coordinator
	// lane.
	at  time.Duration
	seq uint64
	src int32

	from node.ID
	kind eventKind
	h    *host
	fn   func()
	tid  node.TimerID
	pkt  []byte
	rx   *reception

	// evArrive payload: the transmission time and sender-side
	// Config.Loss verdict, and — when a trace hook and a fault plan are
	// both set — the trace record the receiver's fault verdict lands in.
	lossLost bool
	txAt     time.Duration
	tr       *txTrace
}

// evPool is an event free-list: every dispatched event returns here and
// is reused by the next push, so the steady-state event loop stops
// allocating.
type evPool struct {
	free     []*event
	disabled bool
}

func (p *evPool) get() *event {
	if last := len(p.free) - 1; last >= 0 {
		ev := p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		return ev
	}
	return &event{}
}

func (p *evPool) put(ev *event) {
	if p.disabled {
		return
	}
	*ev = event{}
	p.free = append(p.free, ev)
}

// pktArena recycles the per-receiver packet copies deliver makes.
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
		poison(b)
	}
	a.free = append(a.free, b)
}

// poison overwrites b's whole capacity with 0xDB.
func poison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
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

	// The owning shard, the lazily split per-sender medium stream, and
	// the lane sequence counter that tie-breaks this host's events in the
	// canonical order. lseq is only ever touched by the owning shard's
	// goroutine (or by the coordinator while every shard is at a
	// barrier).
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
	n := cfg.Graph.N()
	if len(behaviors) != n {
		return nil, fmt.Errorf("sim: %d behaviors for %d graph nodes", len(behaviors), n)
	}
	if n > maxNodes {
		return nil, fmt.Errorf("sim: %d graph nodes exceed the engine's %d", n, maxNodes)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("sim: negative Shards %d", cfg.Shards)
	}
	if cfg.ShardOf != nil && len(cfg.ShardOf) != n {
		return nil, fmt.Errorf("sim: ShardOf has %d entries for %d nodes", len(cfg.ShardOf), n)
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
		m:      newSimMetrics(cfg.Obs.Registry()),
		keys:   crypt.NewKeyring(),
		root:   root,
		shards: make([]*shard, max(cfg.Shards, 1)),
	}
	eng.free.disabled = cfg.DisablePooling
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(n); err != nil {
			return nil, err
		}
	}
	s := len(eng.shards)
	for k := range eng.shards {
		eng.shards[k] = newShard(eng, k)
	}
	eng.hosts = make([]*host, n)
	for i, b := range behaviors {
		k := i * s / n
		if cfg.ShardOf != nil {
			k = cfg.ShardOf[i]
			if k < 0 || k >= s {
				return nil, fmt.Errorf("sim: ShardOf[%d] = %d out of range [0,%d)", i, k, s)
			}
		}
		eng.hosts[i] = &host{
			eng:      eng,
			id:       node.ID(i),
			idx:      i,
			behavior: b,
			rng:      root.Split(1 + uint64(i)),
			alive:    b != nil,
			sh:       eng.shards[k],
		}
	}
	return eng, nil
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn at the given absolute virtual time (or immediately next
// if t is in the past) on the coordinator lane. External actors —
// experiment scripts, the adversary — use this to interleave with
// protocol events.
func (e *Engine) Schedule(t time.Duration, fn func()) {
	ev := e.free.get()
	e.seq++
	ev.at = max(t, e.now)
	ev.seq = e.seq
	ev.kind = evFunc
	ev.fn = fn
	e.queue.push(ev)
}

// Boot schedules behavior Start callbacks at time t for every alive,
// not-yet-started node, and turns the fault plan's crash/reboot events
// into engine events. Call once after New (t=0 for the initial
// deployment); late-deployed nodes are booted individually with BootNode.
func (e *Engine) Boot(t time.Duration) {
	for _, h := range e.hosts {
		if h.alive && !h.started {
			e.bootHost(h, t)
		}
	}
	if inj := e.shards[0].inj; inj != nil {
		for _, ev := range inj.CrashRebootEvents() {
			// Crash/reboot land on the target's own lane so their order
			// against the node's other events is canonical.
			h := e.hosts[ev.Node]
			kind := evCrash
			if ev.Kind == faults.KindReboot {
				kind = evReboot
			}
			h.sh.pushHostEvent(ev.At, h, kind)
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
	h.sh.pushHostEvent(t, h, evStart)
}

// Run processes events in time order until the queue is empty or the
// virtual clock would exceed until. It returns the number of events
// processed.
func (e *Engine) Run(until time.Duration) int {
	n, _ := e.run(until, false, 0)
	return n
}

// RunUntilIdle drains every pending event regardless of time and returns
// the number processed. maxEvents guards against livelock (<=0 means no
// limit); exceeding it returns an error.
func (e *Engine) RunUntilIdle(maxEvents int) (int, error) {
	return e.run(0, true, maxEvents)
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

// ShardCount returns the number of shards the engine runs on.
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
// a rebooted node must not see timers armed before the crash. Call it
// from the coordinator lane (a Schedule closure) or between runs.
func (e *Engine) Crash(i int) {
	e.syncShardClocks()
	h := e.hosts[i]
	h.sh.crash(h)
}

// Reboot revives a crashed node at the current virtual time: the radio
// reopens and the behavior gets a restart callback — Reboot if it
// implements node.Rebooter (warm restart: key material in stable storage
// survived, volatile timers did not), Start otherwise. Rebooting an alive
// or never-booted node is a no-op. Call it from the coordinator lane or
// between runs.
func (e *Engine) Reboot(i int) {
	e.syncShardClocks()
	h := e.hosts[i]
	h.sh.reboot(h)
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
// engine's coordinator lane — the hook through which experiment scripts
// trigger application-level actions (send a reading, start a refresh,
// issue a revocation) without breaking the single-threaded behavior
// contract. fn is not invoked if the node is dead at t.
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
// at that position would reach. The position's host owns the lane and
// the medium stream, so the fan-out is identical to a real transmission
// from there.
func (e *Engine) InjectAt(at int, fakeFrom node.ID, pkt []byte) {
	e.syncShardClocks()
	h := e.hosts[at]
	h.sh.deliver(h, fakeFrom, pkt, e.cfg.Graph.Neighbors(at))
}

// SendTo transmits pkt from node from to node to alone: a broadcast
// with exactly one receiver. It draws from the sender's medium stream,
// charges Tx, and meets Loss, the fault plan and the Trace hook exactly
// as a broadcast does. A dead sender sends nothing. Call it from the
// sender's own callbacks or from the coordinator lane; to is normally a
// graph neighbor of from, which the engine does not check.
func (e *Engine) SendTo(from, to int, pkt []byte) {
	h := e.hosts[from]
	if !h.alive {
		return
	}
	s := h.sh
	s.one[0] = int32(to)
	e.transmit(h, pkt, s.one[:])
}

// transmit carries a host transmission onto the medium, to receivers
// nbs.
func (e *Engine) transmit(h *host, pkt []byte, nbs []int32) {
	e.m.tx.Inc()
	e.m.txBytes.Add(uint64(len(pkt)))
	h.meter.ChargeTx(e.cfg.Energy, len(pkt))
	// The transmission itself completes even if it drains the battery;
	// the node is dead afterwards.
	h.sh.deliver(h, h.id, pkt, nbs)
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
// never disagree about how many nodes died. The callback is buffered and
// replayed on the coordinator in canonical order at the next barrier.
func (e *Engine) kill(h *host) {
	if !h.alive {
		return
	}
	h.alive = false
	e.m.deaths.Inc()
	if e.cfg.OnDeath != nil {
		h.sh.cbs = append(h.sh.cbs, cbRec{kind: cbDeath, at: h.sh.now, node: int32(h.idx)})
	}
}

// runTimer fires behavior timer tid on h unless it was cancelled (absent
// from the armed set) or the host died.
func (h *host) runTimer(tid node.TimerID) {
	tag, ok := h.takeTimer(tid)
	if !ok || !h.alive {
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

// Now implements node.Context: the owning shard's clock (synced to
// coordinator time for between-epoch callbacks).
func (h *host) Now() time.Duration { return h.sh.now }

// Broadcast implements node.Context.
func (h *host) Broadcast(pkt []byte) {
	if !h.alive {
		return
	}
	h.eng.transmit(h, pkt, h.eng.cfg.Graph.Neighbors(h.idx))
}

// SetTimer implements node.Context.
func (h *host) SetTimer(d time.Duration, tag node.Tag) node.TimerID {
	h.nextTID++
	tid := h.nextTID
	h.timers = append(h.timers, timerRec{tid, tag}) // tids increase: stays sorted
	ev := h.sh.pushHostEvent(h.sh.now+d, h, evTimer)
	ev.tid = tid
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
