// Package live runs node behaviors as one goroutine per node with channel
// radios — the concurrent counterpart of internal/sim.
//
// The protocol state machines in internal/core are written once against
// node.Context; the deterministic simulator hosts them for experiments,
// and this runtime hosts them for the examples, exercising the same code
// under real scheduling nondeterminism (and under `go test -race`). Each
// node's callbacks (Start / Receive / Timer) run only on that node's
// goroutine, so behaviors need no locking, exactly as with the simulator.
//
// Broadcast delivery is a non-blocking send into each neighbor's buffered
// inbox; a full inbox drops the packet, modeling radio buffer overflow.
// Timers use a per-node deadline heap driven by a single time.Timer.
package live

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypt"
	"repro/internal/energy"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/xrand"
)

// Config parameterizes a Network.
type Config struct {
	// Graph is the communication topology; node i hosts behaviors[i].
	Graph *topology.Graph
	// Seed drives per-node random streams.
	Seed uint64
	// InboxSize is each node's receive buffer capacity (default 256).
	InboxSize int
	// Loss is the independent per-link per-packet loss probability.
	Loss float64
	// Energy is the cost model; zero value means DefaultModel.
	Energy energy.Model
	// Obs, if non-nil, attaches runtime counters (tx/rx/drops/timer
	// fires) to the scope's registry. The sharded counters make the
	// hooks contention-free across node goroutines; a nil scope costs
	// one nil check per hook.
	Obs *obs.Scope

	// Transport enables the reliable datagram layer (internal/transport)
	// when Transport.ARQ is set: framing, duplicate suppression, and
	// per-link ack/retransmit with circuit breakers. The zero value keeps
	// the fire-and-forget path.
	Transport transport.Config
	// Carrier, if non-nil, moves frames to nodes hosted by OTHER OS
	// processes (e.g. transport.UDP): a local Broadcast reaches local
	// neighbors through their inboxes and remote neighbors through the
	// carrier; inbound carrier frames are fanned to local neighbors of
	// the sender. A Carrier requires Transport.ARQ. Each process should
	// host exactly one non-nil behavior in this mode.
	Carrier transport.Carrier
	// Drop, if non-nil, is consulted once per transmitted frame (data,
	// ack, or retransmission) on the framed path — the seam for
	// internal/faults injectors. It runs under an internal mutex, so a
	// non-concurrency-safe injector is fine. Returning true discards the
	// frame before it reaches any inbox or the carrier.
	Drop func(now time.Duration, from, to int) bool

	// Epoch, if non-zero, is the network's time origin: Context.Now
	// reads time.Since(Epoch) instead of time-since-Start. Multi-process
	// deployments (internal/fleet) share one Epoch — the deployment's
	// creation instant — so a node process restarted minutes into a run
	// resumes the deployment clock rather than restarting at zero, which
	// would push every envelope it stamps outside the peers' freshness
	// window. The zero value keeps the legacy per-process origin.
	Epoch time.Time
	// WarmBoot routes the boot callback of behaviors implementing
	// node.Rebooter through Reboot instead of Start — the process-level
	// analogue of the fault injector's warm reboot, for behaviors
	// restored from persisted state (core.RestoreSensor). Behaviors
	// without Reboot are Started normally.
	WarmBoot bool
}

type packet struct {
	from node.ID
	data []byte
	raw  bool // data is a transport frame, not a bare radio packet
}

// Network hosts the nodes. Create with Start, stop with Stop.
type Network struct {
	cfg   Config
	hosts []*lhost
	wg    sync.WaitGroup
	stop  chan struct{}
	done  atomic.Bool

	lossMu  sync.Mutex
	lossRNG *xrand.RNG

	start time.Time

	// keys is the keyed-sealer table all node goroutines share.
	keys *crypt.Keyring

	m  liveMetrics
	tm transport.Metrics
}

// liveMetrics are the runtime's counters; all-nil (no-op) when
// Config.Obs is unset.
type liveMetrics struct {
	tx      *obs.Counter
	txBytes *obs.Counter
	rx      *obs.Counter
	dropped *obs.Counter
	lost    *obs.Counter
	timers  *obs.Counter
	crashes *obs.Counter
}

func newLiveMetrics(r *obs.Registry) liveMetrics {
	return liveMetrics{
		tx:      r.Counter("live_tx_total", "packets and transport frames transmitted by live nodes"),
		txBytes: r.Counter("live_tx_bytes_total", "bytes transmitted by live nodes"),
		rx:      r.Counter("live_rx_total", "packets and transport frames received by live nodes"),
		dropped: r.Counter("live_inbox_dropped_total", "packets lost to inbox overflow"),
		lost:    r.Counter("live_lost_total", "packets dropped by the loss model"),
		timers:  r.Counter("live_timers_fired_total", "node timers fired"),
		crashes: r.Counter("live_crashes_total", "live nodes crashed"),
	}
}

// lhost is one node's goroutine-side state. All fields except inbox,
// alive, and dropped are owned by the node's own goroutine.
type lhost struct {
	net      *Network
	id       node.ID
	idx      int
	behavior node.Behavior
	inbox    chan packet
	cmds     chan func(node.Context)
	alive    atomic.Bool
	crashed  chan struct{} // closed by Crash/Kill to wake the goroutine
	dropped  atomic.Int64  // inbox-overflow packets

	rng     *xrand.RNG
	meter   energy.Meter
	meterMu sync.Mutex // meter is read by Meter() while the node runs

	timers  timerHeap
	nextTID node.TimerID
	clock   *time.Timer
	start   time.Time

	// ep is the node's reliability endpoint (nil on the legacy path).
	// It is driven exclusively from the node goroutine: Send from
	// Broadcast, HandleRaw from inbox processing, Tick from arq.
	ep  *transport.Endpoint
	arq *time.Timer // retransmit clock, armed from ep.NextWake
}

type liveTimer struct {
	deadline  time.Time
	tag       node.Tag
	id        node.TimerID
	cancelled bool
}

type timerHeap []*liveTimer

func (h timerHeap) Len() int            { return len(h) }
func (h timerHeap) Less(i, j int) bool  { return h[i].deadline.Before(h[j].deadline) }
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*liveTimer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Start boots a network: every non-nil behavior gets a goroutine and its
// Start callback runs before any delivery to it.
func Start(cfg Config, behaviors []node.Behavior) *Network {
	if cfg.Graph == nil || len(behaviors) != cfg.Graph.N() {
		panic("live: behaviors must match Config.Graph")
	}
	if cfg.Carrier != nil && !cfg.Transport.ARQ {
		panic("live: Config.Carrier requires Transport.ARQ")
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 256
	}
	if (cfg.Energy == energy.Model{}) {
		cfg.Energy = energy.DefaultModel()
	}
	root := xrand.New(cfg.Seed)
	n := &Network{
		cfg:     cfg,
		stop:    make(chan struct{}),
		lossRNG: root.Split(0),
		keys:    crypt.NewKeyring(),
		m:       newLiveMetrics(cfg.Obs.Registry()),
		tm:      transport.NewMetrics(cfg.Obs.Registry()),
	}
	n.hosts = make([]*lhost, len(behaviors))
	now := time.Now()
	if !cfg.Epoch.IsZero() {
		now = cfg.Epoch
	}
	n.start = now
	for i, b := range behaviors {
		h := &lhost{
			net:      n,
			id:       node.ID(i),
			idx:      i,
			behavior: b,
			inbox:    make(chan packet, cfg.InboxSize),
			cmds:     make(chan func(node.Context), 16),
			crashed:  make(chan struct{}),
			rng:      root.Split(1 + uint64(i)),
			start:    now,
		}
		h.alive.Store(b != nil)
		if cfg.Transport.ARQ && b != nil {
			idx := i
			h.ep = transport.NewEndpoint(cfg.Transport, i, h.rng.Split(^uint64(0)),
				func(to int, frame []byte) { n.sendFrame(idx, to, frame) },
				func(from int, payload []byte) { h.behavior.Receive(h, node.ID(from), payload) })
			h.ep.SetMetrics(n.tm)
		}
		n.hosts[i] = h
	}
	for _, h := range n.hosts {
		if h.behavior == nil {
			continue
		}
		n.wg.Add(1)
		go h.run()
	}
	if cfg.Carrier != nil {
		n.wg.Add(1)
		go n.pump()
	}
	return n
}

// Stop shuts every node down and waits for their goroutines. It is
// idempotent and safe to race with in-flight traffic: the shutdown
// signal is a channel close (never a channel of packets), inboxes are
// buffered and never closed, and deliveries into them are non-blocking
// — so a node goroutine caught mid-Broadcast while its peers exit can
// neither panic on a closed channel nor deadlock on a full one; its
// packets land in abandoned buffers and are garbage-collected with
// them. Stop does NOT close Config.Carrier (the caller owns it); it
// only detaches the pump goroutine from it. After Stop returns, meters
// and behaviors may be inspected without synchronization.
func (n *Network) Stop() {
	if n.done.CompareAndSwap(false, true) {
		close(n.stop)
	}
	n.wg.Wait()
}

// N returns the number of hosted nodes.
func (n *Network) N() int { return len(n.hosts) }

// Alive reports whether node i is operating.
func (n *Network) Alive(i int) bool { return n.hosts[i].alive.Load() }

// Crash fail-stops node i the way a fault plan does in the simulator:
// its radio channel closes (no further deliveries in either direction),
// its goroutine exits promptly, and every pending timer dies with it.
func (n *Network) Crash(i int) {
	h := n.hosts[i]
	if h.alive.CompareAndSwap(true, false) {
		n.m.crashes.Inc()
		n.cfg.Obs.Emit(time.Since(h.start), obs.KindCrash, i, 0, "")
		close(h.crashed)
	}
}

// Kill removes node i from the network (no further deliveries). It is
// the same fail-stop operation as Crash.
func (n *Network) Kill(i int) { n.Crash(i) }

// Dropped returns the number of packets node i lost to inbox overflow.
func (n *Network) Dropped(i int) int64 { return n.hosts[i].dropped.Load() }

// Behavior returns the behavior hosted at node i. Inspect its state only
// after Stop.
func (n *Network) Behavior(i int) node.Behavior { return n.hosts[i].behavior }

// MeterSnapshot returns a copy of node i's energy meter, safe to call
// while the network runs.
func (n *Network) MeterSnapshot(i int) energy.Meter {
	h := n.hosts[i]
	h.meterMu.Lock()
	defer h.meterMu.Unlock()
	return h.meter
}

// Do runs fn on node i's goroutine with that node's Context — the hook for
// application-level actions (send a reading, trigger a refresh). It blocks
// until the command is queued; the command itself runs asynchronously.
// Commands for dead, crashed, or dark (nil-behavior) nodes are dropped:
// a crashed node's goroutine has exited, so without the crashed case a
// full command buffer would block the caller forever.
func (n *Network) Do(i int, fn func(node.Context)) {
	h := n.hosts[i]
	if h.behavior == nil {
		return
	}
	select {
	case h.cmds <- fn:
	case <-n.stop:
	case <-h.crashed:
	}
}

// Inject broadcasts pkt from the radio position of graph node at with a
// forged link-layer sender, for adversary scenarios. Injection models a
// rogue radio, so it always uses the bare path: it bypasses the
// transport layer (no framing, no seq, no acks) even when the network
// runs framed — exactly what an attacker who ignores our link protocol
// would transmit.
func (n *Network) Inject(at int, fakeFrom node.ID, pkt []byte) {
	n.deliver(at, fakeFrom, pkt)
}

// BreakerState reports node i's transport breaker toward peer; always
// BreakerClosed on the legacy path. Inspect only after Stop (endpoint
// state is owned by the node goroutine while the network runs).
func (n *Network) BreakerState(i, peer int) transport.BreakerState {
	if h := n.hosts[i]; h.ep != nil {
		return h.ep.BreakerState(peer)
	}
	return transport.BreakerClosed
}

// sendFrame moves one marshalled transport frame from a local sender
// toward its destination. The sender pays Tx for every frame, data,
// ack or retransmission alike; then the loss model and fault-injection
// seam run (per frame — so retransmissions and acks face the same
// medium as first transmissions), and the frame lands in a local inbox
// or on the carrier. Called from node goroutines; the frame slice is
// copied because endpoints reuse marshal scratch.
func (n *Network) sendFrame(from, to int, frame []byte) {
	n.hosts[from].chargeTx(len(frame))
	if n.cfg.Loss > 0 || n.cfg.Drop != nil {
		n.lossMu.Lock()
		dropped := n.cfg.Drop != nil && n.cfg.Drop(time.Since(n.start), from, to)
		if !dropped && n.cfg.Loss > 0 {
			dropped = n.lossRNG.Bool(n.cfg.Loss)
		}
		n.lossMu.Unlock()
		if dropped {
			n.m.lost.Inc()
			return
		}
	}
	rcv := n.hosts[to]
	if rcv.behavior == nil {
		if n.cfg.Carrier != nil {
			n.cfg.Carrier.Send(to, frame)
		}
		return
	}
	if !rcv.alive.Load() {
		return
	}
	copied := append([]byte(nil), frame...)
	select {
	case rcv.inbox <- packet{from: node.ID(from), data: copied, raw: true}:
	default:
		rcv.dropped.Add(1)
		n.m.dropped.Inc()
	}
}

// pump moves inbound carrier frames into local inboxes. A frame from
// remote node f is offered to every local neighbor of f — in the
// one-behavior-per-process deployment that is exactly the one node the
// remote peer addressed.
func (n *Network) pump() {
	defer n.wg.Done()
	inbound := n.cfg.Carrier.Inbound()
	for {
		select {
		case in, ok := <-inbound:
			if !ok {
				return
			}
			n.inboundFrame(in)
		case <-n.stop:
			return
		}
	}
}

func (n *Network) inboundFrame(in transport.Inbound) {
	if in.From < 0 || in.From >= len(n.hosts) {
		return
	}
	for _, nb := range n.cfg.Graph.Neighbors(in.From) {
		rcv := n.hosts[nb]
		if rcv.behavior == nil || !rcv.alive.Load() {
			continue
		}
		copied := append([]byte(nil), in.Frame...)
		select {
		case rcv.inbox <- packet{from: node.ID(in.From), data: copied, raw: true}:
		default:
			rcv.dropped.Add(1)
			n.m.dropped.Inc()
		}
	}
}

func (n *Network) deliver(idx int, from node.ID, pkt []byte) {
	for _, nb := range n.cfg.Graph.Neighbors(idx) {
		rcv := n.hosts[nb]
		if !rcv.alive.Load() || rcv.behavior == nil {
			continue
		}
		if n.cfg.Loss > 0 {
			n.lossMu.Lock()
			lost := n.lossRNG.Bool(n.cfg.Loss)
			n.lossMu.Unlock()
			if lost {
				n.m.lost.Inc()
				continue
			}
		}
		copied := append([]byte(nil), pkt...)
		select {
		case rcv.inbox <- packet{from: from, data: copied}:
		default:
			rcv.dropped.Add(1)
			n.m.dropped.Inc()
		}
	}
}

// run is the node's event loop.
func (h *lhost) run() {
	defer h.net.wg.Done()
	h.clock = time.NewTimer(time.Hour)
	if !h.clock.Stop() {
		<-h.clock.C
	}
	defer h.clock.Stop()
	h.arq = time.NewTimer(time.Hour)
	if !h.arq.Stop() {
		<-h.arq.C
	}
	defer h.arq.Stop()

	if rb, ok := h.behavior.(node.Rebooter); ok && h.net.cfg.WarmBoot {
		rb.Reboot(h)
	} else {
		h.behavior.Start(h)
	}
	for {
		h.rearmClock()
		h.rearmARQ()
		select {
		case <-h.net.stop:
			return
		case <-h.crashed:
			return
		case p := <-h.inbox:
			if !h.alive.Load() {
				return
			}
			h.chargeRx(len(p.data))
			if p.raw {
				// Framed path: acks/dup-suppression first, then the
				// payload surfaces through the endpoint's delivery
				// callback.
				h.ep.HandleRaw(p.data, h.Now())
				continue
			}
			h.behavior.Receive(h, p.from, p.data)
		case fn := <-h.cmds:
			if !h.alive.Load() {
				return
			}
			fn(h)
		case now := <-h.clock.C:
			if !h.alive.Load() {
				return
			}
			h.fireDue(now)
		case <-h.arq.C:
			if !h.alive.Load() {
				return
			}
			h.ep.Tick(h.Now())
		}
	}
}

// chargeRx charges receiving one packet or frame of n bytes.
func (h *lhost) chargeRx(n int) {
	h.net.m.rx.Inc()
	h.meterMu.Lock()
	h.meter.ChargeRx(h.net.cfg.Energy, n)
	h.meterMu.Unlock()
}

// chargeTx charges transmitting one packet or frame of n bytes.
func (h *lhost) chargeTx(n int) {
	h.net.m.tx.Inc()
	h.net.m.txBytes.Add(uint64(n))
	h.meterMu.Lock()
	h.meter.ChargeTx(h.net.cfg.Energy, n)
	h.meterMu.Unlock()
}

// rearmARQ sets the retransmit clock to the endpoint's earliest
// deadline; parked when nothing is in flight.
func (h *lhost) rearmARQ() {
	if h.ep == nil {
		return
	}
	if !h.arq.Stop() {
		select {
		case <-h.arq.C:
		default:
		}
	}
	w, ok := h.ep.NextWake()
	if !ok {
		return
	}
	d := w - h.Now()
	if d < 0 {
		d = 0
	}
	h.arq.Reset(d)
}

// rearmClock sets the shared timer to the earliest pending deadline,
// discarding cancelled timers at the top of the heap.
func (h *lhost) rearmClock() {
	for h.timers.Len() > 0 && h.timers[0].cancelled {
		heap.Pop(&h.timers)
	}
	if h.timers.Len() == 0 {
		return
	}
	d := time.Until(h.timers[0].deadline)
	if d < 0 {
		d = 0
	}
	if !h.clock.Stop() {
		select {
		case <-h.clock.C:
		default:
		}
	}
	h.clock.Reset(d)
}

// fireDue runs every timer whose deadline has passed.
func (h *lhost) fireDue(now time.Time) {
	for h.timers.Len() > 0 {
		top := h.timers[0]
		if top.cancelled {
			heap.Pop(&h.timers)
			continue
		}
		if top.deadline.After(now) {
			return
		}
		heap.Pop(&h.timers)
		h.net.m.timers.Inc()
		h.behavior.Timer(h, top.tag)
		if !h.alive.Load() {
			return
		}
	}
}

// --- node.Context implementation (called only from the node goroutine) ---

// ID implements node.Context.
func (h *lhost) ID() node.ID { return h.id }

// Now implements node.Context: time since the network started.
func (h *lhost) Now() time.Duration { return time.Since(h.start) }

// Broadcast implements node.Context. On the framed path the broadcast
// becomes one transport frame per neighbor (each with its own seq and
// retry schedule), and sendFrame charges Tx for each frame; the bare
// path charges one Tx per Broadcast.
func (h *lhost) Broadcast(pkt []byte) {
	if !h.alive.Load() {
		return
	}
	if h.ep != nil {
		now := h.Now()
		for _, nb := range h.net.cfg.Graph.Neighbors(h.idx) {
			// Without a carrier a dark (nil-behavior) neighbor can never
			// ack; don't waste a retry budget proving it.
			if h.net.cfg.Carrier == nil && h.net.hosts[nb].behavior == nil {
				continue
			}
			h.ep.Send(int(nb), pkt, now)
		}
		h.rearmARQ()
		return
	}
	h.chargeTx(len(pkt))
	h.net.deliver(h.idx, h.id, pkt)
}

// SetTimer implements node.Context.
func (h *lhost) SetTimer(d time.Duration, tag node.Tag) node.TimerID {
	h.nextTID++
	t := &liveTimer{deadline: time.Now().Add(d), tag: tag, id: h.nextTID}
	heap.Push(&h.timers, t)
	return t.id
}

// CancelTimer implements node.Context.
func (h *lhost) CancelTimer(id node.TimerID) {
	for _, t := range h.timers {
		if t.id == id {
			t.cancelled = true
			return
		}
	}
}

// Rand implements node.Context.
func (h *lhost) Rand() *xrand.RNG { return h.rng }

// ChargeCipher implements node.Context.
func (h *lhost) ChargeCipher(n int) {
	h.meterMu.Lock()
	h.meter.ChargeCipher(h.net.cfg.Energy, n)
	h.meterMu.Unlock()
}

// ChargeMAC implements node.Context.
func (h *lhost) ChargeMAC(n int) {
	h.meterMu.Lock()
	h.meter.ChargeMAC(h.net.cfg.Energy, n)
	h.meterMu.Unlock()
}

// Keyring implements node.Context: one ring per network.
func (h *lhost) Keyring() *crypt.Keyring { return h.net.keys }

// Die implements node.Context.
func (h *lhost) Die() { h.alive.Store(false) }
