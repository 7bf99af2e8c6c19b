package transport

import (
	"fmt"
	"time"

	"repro/internal/crypt"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Lab hosts node.Behaviors over transport Endpoints on the simulation
// engine (internal/sim), so the ARQ and breaker machinery can be driven
// by seeded chaos plans inside the experiment harness: same seed, same
// event order, same retransmit schedule, byte-identical results at any
// worker count.
//
// The engine owns the clock, the event order, the medium and the energy
// meters. Each endpoint frame is one engine unicast (sim.Engine.SendTo)
// from the sender to one neighbor. Without a transport a Lab is the bare
// engine: behaviors broadcast on the medium directly.
type Lab struct {
	cfg   LabConfig
	eng   *sim.Engine
	nodes []*labNode
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
	// Drop, when non-nil, is consulted once per frame arrival at a live
	// receiver, at the arrival time — the seam for internal/faults
	// injectors. Returning true discards the frame.
	Drop func(now time.Duration, from, to int) bool
	// Metrics instruments every host's endpoint (shared counters).
	Metrics Metrics
}

// tagTick is the engine timer tag of an endpoint's retransmit clock.
// Behaviors number their own tags from 1, so a negative tag never
// collides with one.
const tagTick node.Tag = -1

// labNode hosts one behavior. To the engine it is the node.Behavior;
// to the behavior it is the node.Context, which turns a Broadcast into
// one endpoint Send per hosted neighbor, or passes it to the engine
// when the transport is off.
type labNode struct {
	lab      *Lab
	idx      int
	behavior node.Behavior
	ep       *Endpoint
	// ctx is the engine's context for this node, set at every callback.
	ctx node.Context
	// tick is the armed retransmit-clock timer (0 when none) and tickAt
	// its deadline.
	tick   node.TimerID
	tickAt time.Duration
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
	l := &Lab{cfg: cfg, nodes: make([]*labNode, len(behaviors))}
	hosted := make([]node.Behavior, len(behaviors))
	root := xrand.New(cfg.Seed)
	for i, b := range behaviors {
		if b == nil {
			continue
		}
		ln := &labNode{lab: l, idx: i, behavior: b}
		if cfg.Transport.ARQ {
			// The endpoint's stream is split off node i's private stream
			// (the engine's root.Split(1+i)) before anything draws from it.
			ln.ep = NewEndpoint(cfg.Transport, i, root.Split(uint64(1+i)).Split(^uint64(0)),
				func(to int, frame []byte) { l.eng.SendTo(i, to, frame) },
				func(from int, payload []byte) { b.Receive(ln, node.ID(from), payload) })
			ln.ep.SetMetrics(cfg.Metrics)
		}
		l.nodes[i] = ln
		hosted[i] = ln
	}
	eng, err := sim.New(sim.Config{Graph: cfg.Graph, Seed: cfg.Seed}, hosted)
	if err != nil {
		return nil, err
	}
	l.eng = eng
	eng.Boot(0)
	return l, nil
}

// Run processes events until none is left or virtual time would pass
// until. Call repeatedly with increasing horizons to interleave external
// actions (Do, ScheduleCrash) with protocol time.
func (l *Lab) Run(until time.Duration) { l.eng.Run(until) }

// Now returns the lab's current virtual time.
func (l *Lab) Now() time.Duration { return l.eng.Now() }

// Do schedules fn to run as node i (with its Context) at time at. fn is
// not invoked if the node is down at t.
func (l *Lab) Do(at time.Duration, i int, fn func(node.Context)) {
	ln := l.nodes[i]
	l.eng.Do(at, i, func(ctx node.Context) {
		ln.ctx = ctx
		fn(ln)
	})
}

// ScheduleCrash fail-stops node i at time at: timers cleared, radio
// dark. Endpoint state freezes with it (peers see silence and trip
// their breakers).
func (l *Lab) ScheduleCrash(at time.Duration, i int) {
	l.eng.Schedule(at, func() { l.eng.Crash(i) })
}

// ScheduleReboot revives a crashed node i at time at with a warm
// restart (node.Rebooter when implemented, Start otherwise) and a
// fresh transport epoch.
func (l *Lab) ScheduleReboot(at time.Duration, i int) {
	l.eng.Schedule(at, func() { l.eng.Reboot(i) })
}

// Alive reports whether node i is currently up.
func (l *Lab) Alive(i int) bool { return l.eng.Alive(i) }

// Endpoint exposes node i's transport endpoint (nil when the transport
// is disabled or the node is dark); tests use it to inspect breaker
// state.
func (l *Lab) Endpoint(i int) *Endpoint {
	if ln := l.nodes[i]; ln != nil {
		return ln.ep
	}
	return nil
}

// --- labNode: node.Behavior, hosted by the engine ---

func (ln *labNode) Start(ctx node.Context) {
	ln.ctx = ctx
	ln.behavior.Start(ln)
}

// Receive applies the Drop seam, then hands the frame to the endpoint,
// or straight to the behavior when the transport is off.
func (ln *labNode) Receive(ctx node.Context, from node.ID, pkt []byte) {
	ln.ctx = ctx
	if drop := ln.lab.cfg.Drop; drop != nil && drop(ctx.Now(), int(from), ln.idx) {
		return
	}
	if ln.ep == nil {
		ln.behavior.Receive(ln, from, pkt)
		return
	}
	ln.ep.HandleRaw(pkt, ctx.Now())
	ln.rearmTick()
}

func (ln *labNode) Timer(ctx node.Context, tag node.Tag) {
	ln.ctx = ctx
	if tag != tagTick {
		ln.behavior.Timer(ln, tag)
		return
	}
	ln.tick = 0
	ln.ep.Tick(ctx.Now())
	ln.rearmTick()
}

// Reboot starts a fresh transport epoch (the crash wiped the armed
// tick), then restarts the behavior warm when it supports that.
func (ln *labNode) Reboot(ctx node.Context) {
	ln.ctx = ctx
	if ln.ep != nil {
		ln.ep.Reboot()
		ln.tick = 0
	}
	if rb, ok := ln.behavior.(node.Rebooter); ok {
		rb.Reboot(ln)
		return
	}
	ln.behavior.Start(ln)
}

// rearmTick keeps the retransmit clock armed at the endpoint's earliest
// deadline. A tick that fires early finds nothing due and draws no
// randomness.
func (ln *labNode) rearmTick() {
	w, ok := ln.ep.NextWake()
	if !ok {
		return
	}
	now := ln.ctx.Now()
	w = max(w, now)
	if ln.tick != 0 {
		if ln.tickAt <= w {
			return
		}
		ln.ctx.CancelTimer(ln.tick)
	}
	ln.tickAt = w
	ln.tick = ln.ctx.SetTimer(w-now, tagTick)
}

// --- labNode: node.Context, seen by the behavior ---

func (ln *labNode) ID() node.ID                 { return node.ID(ln.idx) }
func (ln *labNode) Now() time.Duration          { return ln.ctx.Now() }
func (ln *labNode) Rand() *xrand.RNG            { return ln.ctx.Rand() }
func (ln *labNode) ChargeCipher(n int)          { ln.ctx.ChargeCipher(n) }
func (ln *labNode) ChargeMAC(n int)             { ln.ctx.ChargeMAC(n) }
func (ln *labNode) Keyring() *crypt.Keyring     { return ln.ctx.Keyring() }
func (ln *labNode) Die()                        { ln.ctx.Die() }
func (ln *labNode) CancelTimer(id node.TimerID) { ln.ctx.CancelTimer(id) }
func (ln *labNode) SetTimer(d time.Duration, tag node.Tag) node.TimerID {
	return ln.ctx.SetTimer(d, tag)
}

// Broadcast sends the packet to every hosted radio neighbor through the
// endpoint, one tracked frame each, or onto the engine's medium when the
// transport is off.
func (ln *labNode) Broadcast(pkt []byte) {
	if ln.ep == nil {
		ln.ctx.Broadcast(pkt)
		return
	}
	now := ln.ctx.Now()
	for _, nb := range ln.lab.cfg.Graph.Neighbors(ln.idx) {
		if ln.lab.nodes[nb] != nil {
			ln.ep.Send(int(nb), pkt, now)
		}
	}
	ln.rearmTick()
}
