package transport

import (
	"fmt"
	"time"

	"repro/internal/crypt"
	"repro/internal/node"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Lab is a deterministic, single-goroutine, virtual-time harness that
// hosts node.Behaviors over transport Endpoints. It exists so the ARQ
// and breaker machinery can be driven by seeded chaos plans inside the
// experiment harness: same seed, same event order, same retransmit
// schedule, byte-identical results at any worker count.
//
// It deliberately mirrors internal/live's stream layout (medium =
// root.Split(0), host i = root.Split(1+i)) but replaces goroutines and
// wall clocks with an event queue keyed by (time, insertion order).
type Lab struct {
	cfg   LabConfig
	hosts []*labHost
	// medium draws per-frame latency jitter and loss, in event order.
	medium *xrand.RNG
	events eventQueue
	now    time.Duration
	// bufs holds frame copies whose arrival has been handled, for
	// transmit to reuse.
	bufs [][]byte
	// keys is the keyed-sealer table every hosted behavior shares.
	keys *crypt.Keyring
}

// LabConfig configures a Lab.
type LabConfig struct {
	// Graph is the radio topology (required).
	Graph *topology.Graph
	// Seed roots every random stream in the lab.
	Seed uint64
	// Transport is the reliability configuration shared by all hosts.
	// The zero value runs bare fire-and-forget delivery.
	Transport Config
	// Latency is the fixed one-hop propagation delay (default 1ms).
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) spread per frame (default
	// 200µs) so deliveries from one broadcast interleave realistically.
	Jitter time.Duration
	// Loss drops each frame independently with this probability, at the
	// receiver, after Drop.
	Loss float64
	// Drop, when non-nil, is consulted per (receiver) frame arrival —
	// the seam for internal/faults injectors. Returning true discards
	// the frame.
	Drop func(now time.Duration, from, to int) bool
	// Metrics instruments every host's endpoint (shared counters).
	Metrics Metrics
}

type labEvent struct {
	kind uint8
	host int
	from int
	tid  node.TimerID
	pkt  []byte
	fn   func(node.Context)
}

const (
	evStart = iota
	evArrive
	evTimer
	evCall
	evCrash
	evReboot
	evTick
)

// eventQueue is a min-heap of events keyed by (time, insertion order).
// The heap holds small keys by value; the events themselves sit in a
// slab whose slots are reused once popped, so a steady-state push
// allocates nothing.
type eventQueue struct {
	keys []eventKey
	slab []labEvent
	free []int32 // popped slab slots
	seq  uint64
}

type eventKey struct {
	at   time.Duration
	seq  uint64
	slot int32
}

func (k eventKey) less(o eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

func (q *eventQueue) len() int { return len(q.keys) }

// next returns the time of the earliest event; the queue must not be
// empty.
func (q *eventQueue) next() time.Duration { return q.keys[0].at }

func (q *eventQueue) push(at time.Duration, ev labEvent) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = ev
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, ev)
	}
	k := eventKey{at: at, seq: q.seq, slot: slot}
	q.seq++
	// Sift up.
	i := len(q.keys)
	q.keys = append(q.keys, k)
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(q.keys[parent]) {
			break
		}
		q.keys[i] = q.keys[parent]
		i = parent
	}
	q.keys[i] = k
}

// pop removes the earliest event, returning its time and the event.
func (q *eventQueue) pop() (time.Duration, labEvent) {
	top := q.keys[0]
	n := len(q.keys) - 1
	last := q.keys[n]
	q.keys = q.keys[:n]
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q.keys[c+1].less(q.keys[c]) {
				c++
			}
			if !q.keys[c].less(last) {
				break
			}
			q.keys[i] = q.keys[c]
			i = c
		}
		q.keys[i] = last
	}
	ev := q.slab[top.slot]
	q.slab[top.slot] = labEvent{} // release pkt and fn
	q.free = append(q.free, top.slot)
	return top.at, ev
}

// labHost implements node.Context for one behavior. Energy accounting
// is not modeled in the lab (Charge* are no-ops): the lab measures
// delivery and state, not joules.
type labHost struct {
	lab      *Lab
	idx      int
	behavior node.Behavior
	rng      *xrand.RNG
	ep       *Endpoint
	alive    bool
	timers   map[node.TimerID]node.Tag
	nextTID  node.TimerID
	tickAt   time.Duration
	tickSet  bool
}

// NewLab builds a lab hosting behaviors[i] on graph node i. A nil
// behavior leaves the node dark (no radio presence). Behaviors start
// (in index order) when Run first advances time.
func NewLab(cfg LabConfig, behaviors []node.Behavior) (*Lab, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("transport: lab requires a graph")
	}
	if len(behaviors) != cfg.Graph.N() {
		return nil, fmt.Errorf("transport: %d behaviors for %d nodes", len(behaviors), cfg.Graph.N())
	}
	if cfg.Latency == 0 {
		cfg.Latency = time.Millisecond
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 200 * time.Microsecond
	}
	root := xrand.New(cfg.Seed)
	l := &Lab{cfg: cfg, medium: root.Split(0), keys: crypt.NewKeyring()}
	l.hosts = make([]*labHost, len(behaviors))
	for i, b := range behaviors {
		h := &labHost{
			lab:      l,
			idx:      i,
			behavior: b,
			rng:      root.Split(uint64(1 + i)),
			alive:    b != nil,
			timers:   make(map[node.TimerID]node.Tag),
		}
		if cfg.Transport.ARQ && b != nil {
			idx := i
			h.ep = NewEndpoint(cfg.Transport, i, h.rng.Split(^uint64(0)),
				func(to int, frame []byte) { l.transmit(idx, to, frame) },
				func(from int, payload []byte) { l.deliverUp(idx, from, payload) })
			h.ep.SetMetrics(cfg.Metrics)
		}
		l.hosts[i] = h
		if b != nil {
			l.events.push(0, labEvent{kind: evStart, host: i})
		}
	}
	return l, nil
}

// transmit schedules one frame's arrival at a peer. The frame is cloned
// because endpoints reuse their marshal scratch.
func (l *Lab) transmit(from, to int, frame []byte) {
	var cp []byte
	if n := len(l.bufs); n > 0 {
		cp = l.bufs[n-1]
		l.bufs = l.bufs[:n-1]
	}
	cp = append(cp[:0], frame...)
	at := l.now + l.cfg.Latency + time.Duration(l.medium.Float64()*float64(l.cfg.Jitter))
	l.events.push(at, labEvent{kind: evArrive, host: to, from: from, pkt: cp})
}

// arrive applies the loss model and hands the frame to the receiver.
func (l *Lab) arrive(e *labEvent) {
	h := l.hosts[e.host]
	if h == nil || !h.alive {
		return
	}
	if l.cfg.Drop != nil && l.cfg.Drop(l.now, e.from, e.host) {
		return
	}
	if l.cfg.Loss > 0 && l.medium.Bool(l.cfg.Loss) {
		return
	}
	if h.ep != nil {
		h.ep.HandleRaw(e.pkt, l.now)
		h.rearmTick()
		return
	}
	h.behavior.Receive(h, node.ID(e.from), e.pkt)
}

// deliverUp is the endpoint→behavior seam.
func (l *Lab) deliverUp(host, from int, payload []byte) {
	h := l.hosts[host]
	if !h.alive {
		return
	}
	h.behavior.Receive(h, node.ID(from), payload)
}

// Run processes events until the heap is exhausted or virtual time
// would pass until. Call repeatedly with increasing horizons to
// interleave external actions (Do, ScheduleCrash) with protocol time.
func (l *Lab) Run(until time.Duration) {
	for l.events.len() > 0 && l.events.next() <= until {
		at, e := l.events.pop()
		if at > l.now {
			l.now = at
		}
		h := l.hosts[e.host]
		switch e.kind {
		case evStart:
			if h.alive {
				h.behavior.Start(h)
			}
		case evArrive:
			l.arrive(&e)
			if l.cfg.Transport.ARQ {
				// transmit copied the frame; the endpoint and the
				// behavior may read it only during the call (buffer
				// ownership, docs/TRANSPORT.md), so it is free again.
				l.bufs = append(l.bufs, e.pkt)
			}
		case evTimer:
			if !h.alive {
				break
			}
			tag, ok := h.timers[e.tid]
			if !ok {
				break // cancelled, or wiped by a crash
			}
			delete(h.timers, e.tid)
			h.behavior.Timer(h, tag)
		case evCall:
			if h.alive {
				e.fn(h)
			}
		case evCrash:
			h.alive = false
			h.timers = make(map[node.TimerID]node.Tag)
		case evReboot:
			if h.behavior == nil || h.alive {
				break
			}
			h.alive = true
			if h.ep != nil {
				h.ep.Reboot()
				h.tickSet = false
			}
			if rb, ok := h.behavior.(node.Rebooter); ok {
				rb.Reboot(h)
			} else {
				h.behavior.Start(h)
			}
		case evTick:
			h.tickSet = false
			if h.alive && h.ep != nil {
				h.ep.Tick(l.now)
				h.rearmTick()
			}
		}
		// Behavior callbacks may have queued sends; keep their
		// retransmit clock armed.
		if h != nil && h.alive && h.ep != nil {
			h.rearmTick()
		}
	}
	if l.now < until {
		l.now = until
	}
}

// rearmTick keeps an evTick queued at the endpoint's earliest
// retransmit deadline. Stale ticks are harmless (Tick of a quiet
// endpoint does nothing and draws no randomness).
func (h *labHost) rearmTick() {
	w, ok := h.ep.NextWake()
	if !ok {
		return
	}
	if w <= h.lab.now {
		w = h.lab.now
	}
	if h.tickSet && h.tickAt <= w {
		return
	}
	h.tickAt = w
	h.tickSet = true
	h.lab.events.push(w, labEvent{kind: evTick, host: h.idx})
}

// Now returns the lab's current virtual time.
func (l *Lab) Now() time.Duration { return l.now }

// Do schedules fn to run as node i (with its Context) at time at.
func (l *Lab) Do(at time.Duration, i int, fn func(node.Context)) {
	l.events.push(at, labEvent{kind: evCall, host: i, fn: fn})
}

// ScheduleCrash fail-stops node i at time at: timers cleared, radio
// dark. Endpoint state freezes with it (peers see silence and trip
// their breakers).
func (l *Lab) ScheduleCrash(at time.Duration, i int) {
	l.events.push(at, labEvent{kind: evCrash, host: i})
}

// ScheduleReboot revives a crashed node i at time at with a warm
// restart (node.Rebooter when implemented, Start otherwise) and a
// fresh transport epoch.
func (l *Lab) ScheduleReboot(at time.Duration, i int) {
	l.events.push(at, labEvent{kind: evReboot, host: i})
}

// Alive reports whether node i is currently up.
func (l *Lab) Alive(i int) bool { return l.hosts[i].alive }

// Endpoint exposes node i's transport endpoint (nil when the transport
// is disabled or the node is dark); tests use it to inspect breaker
// state.
func (l *Lab) Endpoint(i int) *Endpoint { return l.hosts[i].ep }

// --- labHost: node.Context ---

func (h *labHost) ID() node.ID             { return node.ID(h.idx) }
func (h *labHost) Now() time.Duration      { return h.lab.now }
func (h *labHost) Rand() *xrand.RNG        { return h.rng }
func (h *labHost) ChargeCipher(n int)      {}
func (h *labHost) ChargeMAC(n int)         {}
func (h *labHost) Keyring() *crypt.Keyring { return h.lab.keys }
func (h *labHost) Die()                    { h.alive = false; h.timers = make(map[node.TimerID]node.Tag) }

// Broadcast fans the packet out to every radio neighbor, through the
// endpoint when the transport is enabled. The packet is cloned once:
// behaviors reuse marshal scratch across sends.
func (h *labHost) Broadcast(pkt []byte) {
	nbs := h.lab.cfg.Graph.Neighbors(h.idx)
	if h.ep != nil {
		for _, nb := range nbs {
			if h.lab.hosts[nb].behavior != nil {
				h.ep.Send(int(nb), pkt, h.lab.now)
			}
		}
		h.rearmTick()
		return
	}
	cp := make([]byte, len(pkt))
	copy(cp, pkt)
	for _, nb := range nbs {
		if h.lab.hosts[nb].behavior != nil {
			h.lab.transmitBare(h.idx, int(nb), cp)
		}
	}
}

// transmitBare schedules a pre-cloned packet without re-copying.
func (l *Lab) transmitBare(from, to int, pkt []byte) {
	at := l.now + l.cfg.Latency + time.Duration(l.medium.Float64()*float64(l.cfg.Jitter))
	l.events.push(at, labEvent{kind: evArrive, host: to, from: from, pkt: pkt})
}

func (h *labHost) SetTimer(d time.Duration, tag node.Tag) node.TimerID {
	h.nextTID++
	id := h.nextTID
	h.timers[id] = tag
	h.lab.events.push(h.lab.now+d, labEvent{kind: evTimer, host: h.idx, tid: id})
	return id
}

func (h *labHost) CancelTimer(id node.TimerID) { delete(h.timers, id) }
