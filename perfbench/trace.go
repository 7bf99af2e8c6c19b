package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/node"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// layer is a repository module a span is charged to.
type layer uint8

const (
	lTopology layer = iota
	lProvision
	lSimBuild
	lTransportBuild
	lSim
	lTransport
	lCore
	// lBench is the benchmark's own bookkeeping inside traced regions
	// (frame capture), kept out of every program layer's self time.
	lBench
	numLayers
)

var layerNames = [numLayers]string{
	"topology.generate", "core.provision", "sim.build", "transport.build",
	"sim", "transport", "core", "bench",
}

// maxSpans bounds the spans kept in memory for the dump; self times are
// accumulated over every span regardless.
const maxSpans = 100_000

// maxCapture bounds the reservoir of measured-phase frames the wire and
// crypt microbenchmarks replay.
const maxCapture = 2048

type span struct {
	layer      layer
	parent     int32
	start, end int64 // ns since the tracer's base
}

type openSpan struct {
	layer layer
	idx   int32 // index in spans, -1 when not kept
	start int64
	child int64 // ns covered by closed child spans
}

// accum holds each layer's self time and span count for one phase.
type accum struct {
	self  [numLayers]int64
	count [numLayers]int64
}

// tracer records spans from the benchmark's calls into each layer. Self
// time of a span is its duration minus the time its child spans cover.
type tracer struct {
	base  time.Time
	stack []openSpan
	// acc[0] is the set-up phase, acc[1] the measured phase.
	acc   [2]accum
	cur   int
	spans []span
	total int64

	// Frames broadcast during the measured phase, by wire type, and a
	// reservoir sample of them.
	frames  [256]int64
	capture [][]byte
	offered uint64
	rng     *xrand.RNG
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), rng: xrand.New(0x5eed)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin, end and setPhase are no-ops on a nil tracer, so the untraced
// run shares the traced run's code.
func (t *tracer) begin(l layer) {
	if t == nil {
		return
	}
	idx := int32(-1)
	now := t.now()
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{layer: l, parent: parent, start: now})
	}
	t.total++
	t.stack = append(t.stack, openSpan{layer: l, idx: idx, start: now})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := t.now()
	n := len(t.stack) - 1
	top := t.stack[n]
	t.stack = t.stack[:n]
	d := now - top.start
	a := &t.acc[t.cur]
	a.self[top.layer] += d - top.child
	a.count[top.layer]++
	if n > 0 {
		t.stack[n-1].child += d
	}
	if top.idx >= 0 {
		t.spans[top.idx].end = now
	}
}

// setPhase charges the spans that follow to the set-up (0) or measured
// (1) phase.
func (t *tracer) setPhase(p int) {
	if t != nil {
		t.cur = p
	}
}

// frame counts and samples one broadcast frame of the measured phase.
func (t *tracer) frame(pkt []byte) {
	if t.cur != 1 || len(pkt) == 0 {
		return
	}
	t.begin(lBench)
	var f wire.Frame
	if wire.ParseFrameInto(&f, pkt) == nil {
		t.frames[f.Type]++
	}
	if len(t.capture) < maxCapture {
		t.capture = append(t.capture, append([]byte(nil), pkt...))
	} else if j := t.rng.Uint64n(t.offered + 1); j < maxCapture {
		t.capture[j] = append(t.capture[j][:0], pkt...)
	}
	t.offered++
	t.end()
}

// wrap returns b behind a span-recording behavior. Its callbacks are
// charged to core; the Broadcast and SetTimer calls they make are charged
// to host, the layer that runs them (sim or transport).
func (t *tracer) wrap(b node.Behavior, host layer) *tracedNode {
	n := &tracedNode{inner: b, t: t}
	n.ctx.t, n.ctx.host = t, host
	return n
}

type tracedNode struct {
	inner node.Behavior
	t     *tracer
	ctx   tracedCtx
}

func (n *tracedNode) enter(ctx node.Context) node.Context {
	n.t.begin(lCore)
	n.ctx.Context = ctx
	return &n.ctx
}

func (n *tracedNode) Start(ctx node.Context) { n.inner.Start(n.enter(ctx)); n.t.end() }

func (n *tracedNode) Receive(ctx node.Context, from node.ID, pkt []byte) {
	n.inner.Receive(n.enter(ctx), from, pkt)
	n.t.end()
}

func (n *tracedNode) Timer(ctx node.Context, tag node.Tag) {
	n.inner.Timer(n.enter(ctx), tag)
	n.t.end()
}

// do runs fn as a core callback: the path a scheduled reading takes into
// its sensor.
func (n *tracedNode) do(ctx node.Context, fn func(node.Context)) { fn(n.enter(ctx)); n.t.end() }

type tracedCtx struct {
	node.Context
	t    *tracer
	host layer
}

func (c *tracedCtx) Broadcast(pkt []byte) {
	c.t.frame(pkt)
	c.t.begin(c.host)
	c.Context.Broadcast(pkt)
	c.t.end()
}

func (c *tracedCtx) SetTimer(d time.Duration, tag node.Tag) node.TimerID {
	c.t.begin(c.host)
	id := c.Context.SetTimer(d, tag)
	c.t.end()
	return id
}

// layerMetrics assembles one traced repetition's per-layer metrics from
// its spans, the obs counters its measured phases moved, and the number
// of frames the transport put on links in them (0 outside the lab).
func (t *tracer) layerMetrics(counters map[string]float64, linkFrames int64) (map[string]metric, error) {
	setup, meas := &t.acc[0], &t.acc[1]
	sec := func(ns int64) metric { return metric{float64(ns) / 1e9, "s"} }
	count := func(v float64) metric { return metric{v, "count"} }
	per := func(ns int64, n float64) metric {
		if n == 0 {
			return metric{0, "ns"}
		}
		return metric{float64(ns) / n, "ns"}
	}
	get := func(name string) float64 { return counters[name] }
	events := get("sim_events_total")
	m := map[string]metric{
		"topology.generate_s":     sec(setup.self[lTopology]),
		"core.provision_s":        sec(setup.self[lProvision]),
		"sim.build_s":             sec(setup.self[lSimBuild]),
		"transport.build_s":       sec(setup.self[lTransportBuild]),
		"sim.self_s":              sec(meas.self[lSim]),
		"sim.events":              count(events),
		"sim.ns_per_event":        per(meas.self[lSim], events),
		"core.self_s":             sec(meas.self[lCore]),
		"core.callbacks":          count(float64(meas.count[lCore])),
		"core.ns_per_callback":    per(meas.self[lCore], float64(meas.count[lCore])),
		"core.setup_tx":           count(get("core_setup_tx_total")),
		"core.setup_retx":         count(get("core_setup_retx_total")),
		"core.data_retx":          count(get("core_data_retx_total")),
		"core.degraded":           count(get("core_degraded_total")),
		"core.bs_deliveries":      count(get("core_bs_deliveries_total")),
		"sim.tx":                  count(get("sim_tx_total")),
		"sim.rx":                  count(get("sim_rx_total")),
		"sim.tx_bytes":            {get("sim_tx_bytes_total"), "B"},
		"transport.self_s":        sec(meas.self[lTransport]),
		"transport.ns_per_frame":  per(meas.self[lTransport], float64(linkFrames)),
		"transport.tx_data":       count(get("transport_tx_data_total")),
		"transport.tx_acks":       count(get("transport_tx_acks_total")),
		"transport.retransmits":   count(get("transport_retransmits_total")),
		"transport.dup_drops":     count(get("transport_dup_drops_total")),
		"transport.send_failures": count(get("transport_send_failures_total")),
		"transport.breaker_opens": count(get("transport_breaker_opens_total")),
		"faults.burst_drops":      count(get("faults_burst_drops_total")),
	}
	other := float64(t.offered)
	for _, typ := range frameTypes {
		m["wire.frames."+frameName(typ)] = count(float64(t.frames[typ]))
		other -= float64(t.frames[typ])
	}
	m["wire.frames.other"] = count(other)
	parse, seal, open, err := t.replayCapture()
	if err != nil {
		return nil, err
	}
	m["wire.parse_ns_per_frame"] = metric{parse, "ns"}
	m["crypt.seal_ns_per_frame"] = metric{seal, "ns"}
	m["crypt.open_ns_per_frame"] = metric{open, "ns"}
	return m, nil
}

// frameTypes are the frame types the workloads send, each reported as
// wire.frames.<name>; every other frame, parseable or not, counts under
// wire.frames.other.
var frameTypes = []wire.Type{wire.THello, wire.TLinkAdvert, wire.TBeacon, wire.TData, wire.TDataBatch}

// frameName turns a wire mnemonic such as "LINK-ADVERT" into "link_advert".
func frameName(t wire.Type) string {
	return strings.ReplaceAll(strings.ToLower(t.String()), "-", "_")
}

// replayMin is how long each microbenchmark replays the captured mix.
const replayMin = 20 * time.Millisecond

// replayCapture times wire.ParseFrameInto, crypt.Sealer.AppendSeal and
// AppendOpen over the captured frame mix and returns ns per frame for
// each. Seal and open run on plaintexts of the sizes the frames carried,
// under the frames' own associated data.
func (t *tracer) replayCapture() (parse, seal, open float64, err error) {
	if len(t.capture) == 0 {
		return 0, 0, 0, nil
	}
	var f wire.Frame
	parse = timeLoop(len(t.capture), func() {
		for _, pkt := range t.capture {
			_ = wire.ParseFrameInto(&f, pkt)
		}
	})

	sealer := crypt.NewSealer(crypt.Key{0x5e, 0xa1})
	var plain, aad, sealed [][]byte
	for _, pkt := range t.capture {
		if err := wire.ParseFrameInto(&f, pkt); err != nil || len(f.Payload) < crypt.Overhead {
			continue
		}
		p := make([]byte, len(f.Payload)-crypt.Overhead)
		a := core.FrameAAD(f.Type, f.CID)
		plain = append(plain, p)
		aad = append(aad, a)
		sealed = append(sealed, sealer.AppendSeal(nil, 1, a, p))
	}
	if len(plain) == 0 {
		return parse, 0, 0, nil
	}
	var buf []byte
	seal = timeLoop(len(plain), func() {
		for i, p := range plain {
			buf = sealer.AppendSeal(buf[:0], 1, aad[i], p)
		}
	})
	ok := true
	open = timeLoop(len(sealed), func() {
		for i, s := range sealed {
			var good bool
			buf, good = sealer.AppendOpen(buf[:0], 1, aad[i], s)
			ok = ok && good
		}
	})
	if !ok {
		return 0, 0, 0, fmt.Errorf("crypt replay: a sealed frame failed to open")
	}
	return parse, seal, open, nil
}

// timeLoop runs pass (which handles n frames) until replayMin has passed
// and returns the mean ns per frame.
func timeLoop(n int, pass func()) float64 {
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < replayMin {
		pass()
		passes++
	}
	return float64(time.Since(start)) / float64(passes*n)
}

// writeSpans dumps the kept spans as JSON lines (name, start_ns, end_ns,
// parent index) and returns the file's path.
func (t *tracer) writeSpans(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
		}{i, layerNames[s.layer], s.start, s.end, s.parent}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
