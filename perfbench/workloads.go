package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// sizes fixes how much work one repetition of each workload does. The
// tests shrink them; the benchmark runs defaultSizes.
type sizes struct {
	keysetupNodes int
	// A data-workload repetition runs this many independent deployments,
	// each from its own trial seed, and pools their results: averaging
	// over deployments keeps the work per reading steady from seed to
	// seed, which one small deployment's topology does not.
	soakTrials, labTrials int
	soakNodes, labNodes   int
	soakWindow, labWindow time.Duration
	senders               int // per deployment
}

var defaultSizes = sizes{
	keysetupNodes: 20_000,
	soakTrials:    4,
	soakNodes:     1_000,
	soakWindow:    500 * time.Millisecond,
	labTrials:     12,
	labNodes:      300,
	labWindow:     300 * time.Millisecond,
	senders:       30,
}

// Workload constants shared by every size.
const (
	density     = 10
	payloadSize = 16
	dataStart   = 2 * time.Second // after key setup and the first beacon flood
	drain       = 2 * time.Second // covers retry backoff and the batch flush delay
	soakPeriod  = 5 * time.Millisecond
	labPeriod   = 100 * time.Millisecond
	labAckDelay = 5 * time.Millisecond

	// Labels of the benchmark's own random streams, split from a trial
	// seed; they sit above every label the program splits for itself.
	scheduleLabel = uint64(1) << 50
	faultLabel    = uint64(1)<<50 + 1
)

type workload struct {
	name string
	rep  func(seed uint64, tr *tracer) (repResult, error)
}

func workloadsFor(sz sizes) map[string]workload {
	m := map[string]workload{}
	for _, w := range []workload{
		{"keysetup", repOf(1, sz.keysetup)},
		{"soak-batch", repOf(sz.soakTrials, sz.soakBatch)},
		{"lab-arq", repOf(sz.labTrials, sz.labARQ)},
	} {
		m[w.name] = w
	}
	return m
}

var workloads = workloadsFor(defaultSizes)

// repResult is one repetition: set-up, the measured phase, and the
// exact counts the output check produced, summed over its trials.
type repResult struct {
	setup, measured, cpu time.Duration
	gc                   gcStats
	steal                float64 // host CPU steal seconds, all CPUs
	counts               counts
	layers               map[string]metric // traced repetitions only
}

// counts are a repetition's exact, seed-determined results. Every
// repetition of one seed must reproduce them, traced or not.
type counts struct {
	Attempted, Passed int
	// Bad counts items that failed the output check: a delivery that is
	// unencrypted, carries the wrong bytes, is unknown or is a duplicate;
	// or a node still holding Km after setup.
	Bad            int
	Tx             int // transmissions of the measured phase
	Keys, KeyNodes int // cluster keys held, over non-BS clustered nodes
	LatP50, LatP99 time.Duration
	LatSamples     int
}

// trial is one deployment's share of a repetition.
type trial struct {
	setup, measured, cpu time.Duration
	gc                   gcStats
	counts               counts // latency fields unset; see lat
	lat                  []time.Duration
	counters             map[string]float64 // traced only: obs counter deltas over the measured phase
	linkFrames           int64              // lab only: frames the transport put on links in it
}

// trialFunc runs one trial. reg is nil exactly when tr is.
type trialFunc func(seed uint64, tr *tracer, reg *obs.Registry) (trial, error)

// repOf makes a repetition of k trials, trial i seeded with
// xrand.TrialSeed(seed, 0, i), with their results pooled.
func repOf(k int, run trialFunc) func(seed uint64, tr *tracer) (repResult, error) {
	return func(seed uint64, tr *tracer) (repResult, error) {
		var r repResult
		var reg *obs.Registry
		if tr != nil {
			reg = obs.NewRegistry()
		}
		var lat []time.Duration
		counters := map[string]float64{}
		var frames int64
		for i := 0; i < k; i++ {
			t, err := run(xrand.TrialSeed(seed, 0, i), tr, reg)
			if err != nil {
				return r, err
			}
			r.setup += t.setup
			r.measured += t.measured
			r.cpu += t.cpu
			r.gc = r.gc.plus(t.gc)
			c := &r.counts
			c.Attempted += t.counts.Attempted
			c.Passed += t.counts.Passed
			c.Bad += t.counts.Bad
			c.Tx += t.counts.Tx
			c.Keys += t.counts.Keys
			c.KeyNodes += t.counts.KeyNodes
			lat = append(lat, t.lat...)
			for name, v := range t.counters {
				counters[name] += v
			}
			frames += t.linkFrames
		}
		r.counts.LatP50, r.counts.LatP99, r.counts.LatSamples = percentiles(lat)
		if tr == nil {
			return r, nil
		}
		var err error
		r.layers, err = tr.layerMetrics(counters, frames)
		return r, err
	}
}

// measurement times a trial's measured phase and, when traced, charges
// its spans to the measured phase and records the obs counters it moved.
type measurement struct {
	tr     *tracer
	reg    *obs.Registry
	before map[string]any
	ph     phase
}

func startMeasured(tr *tracer, reg *obs.Registry) *measurement {
	m := &measurement{tr: tr, reg: reg, before: reg.Snapshot()}
	tr.setPhase(1)
	m.ph = startPhase()
	return m
}

func (m *measurement) stop(t *trial) {
	t.measured, t.cpu, t.gc = m.ph.stop()
	m.tr.setPhase(0)
	if m.reg == nil {
		return
	}
	after := m.reg.Snapshot()
	t.counters = map[string]float64{}
	for name, v := range after {
		if a, ok := v.(uint64); ok {
			b, _ := m.before[name].(uint64)
			t.counters[name] = float64(a - b)
		}
	}
}

// protocolConfig is the protocol configuration of every workload.
func protocolConfig() core.Config {
	cfg := core.DefaultConfig()
	// Explicit rather than derived, so a deployment assembled from parts
	// runs RunSetup on the same clock core.Deploy would.
	cfg.OperationalAt = cfg.ClusterPhaseEnd + cfg.LinkSpread + 50*time.Millisecond
	return cfg
}

func provision(n, bs int, seed uint64, cfg core.Config) (*core.Authority, []*core.Sensor) {
	auth := core.AuthorityFromSeed(seed, cfg.ChainLength)
	sensors := make([]*core.Sensor, n)
	for i := range sensors {
		m := auth.MaterialFor(node.ID(i))
		if i == bs {
			sensors[i] = core.NewBaseStation(cfg, m, auth)
		} else {
			sensors[i] = core.NewSensor(cfg, m)
		}
	}
	return auth, sensors
}

// behaviors returns the sensors as node behaviors: bare when tr is nil,
// otherwise each behind a span-recording wrapper charging its nested
// Broadcast and SetTimer calls to host.
func behaviors(tr *tracer, sensors []*core.Sensor, host layer) ([]node.Behavior, []*tracedNode) {
	bs := make([]node.Behavior, len(sensors))
	if tr == nil {
		for i, s := range sensors {
			bs[i] = s
		}
		return bs, nil
	}
	wrapped := make([]*tracedNode, len(sensors))
	for i, s := range sensors {
		wrapped[i] = tr.wrap(s, host)
		bs[i] = wrapped[i]
	}
	return bs, wrapped
}

// graphFor generates the deployment topology core.Deploy generates for
// n nodes and seed.
func graphFor(n int, seed uint64) (*topology.Graph, error) {
	return topology.Generate(xrand.New(seed).Split(1), topology.Config{N: n, Density: density, Metric: geom.Torus})
}

// pickBS places the base station on the lowest-index node whose degree
// is closest to the target density. Every reading funnels into the base
// station, so its neighborhood sets much of a workload's cost; a typical
// one keeps that cost steady from seed to seed.
func pickBS(g *topology.Graph) int {
	best, bestDiff := 0, g.N()
	for i := 0; i < g.N(); i++ {
		diff := len(g.Neighbors(i)) - density
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = i, diff
		}
	}
	return best
}

// deploy stands up a simulated deployment: through core.Deploy when
// untraced, and otherwise from the same public parts core.Deploy uses,
// with every sensor wrapped and the registry attached. The untraced path
// generates the topology once more, off the clock, to place the base
// station before calling core.Deploy.
func deploy(tr *tracer, reg *obs.Registry, n int, seed uint64, cfg core.Config, trace func(sim.TraceEvent)) (d *core.Deployment, wrapped []*tracedNode, setup time.Duration, err error) {
	if tr == nil {
		g, err := graphFor(n, seed)
		if err != nil {
			return nil, nil, 0, err
		}
		t0 := time.Now()
		d, err := core.Deploy(core.DeployOptions{N: n, Density: density, Seed: seed, Config: cfg, Trace: trace, BSIndex: pickBS(g)})
		return d, nil, time.Since(t0), err
	}
	t0 := time.Now()
	cfg.Obs = reg.Scope("perfbench", 0)
	tr.begin(lTopology)
	graph, err := graphFor(n, seed)
	tr.end()
	if err != nil {
		return nil, nil, 0, err
	}
	bs := pickBS(graph)
	tr.begin(lProvision)
	auth, sensors := provision(n, bs, seed, cfg)
	tr.end()
	behs, wrapped := behaviors(tr, sensors, lSim)
	tr.begin(lSimBuild)
	eng, err := sim.New(sim.Config{Graph: graph, Seed: seed, Trace: trace, Obs: cfg.Obs}, behs)
	if err == nil {
		eng.Boot(0)
	}
	tr.end()
	if err != nil {
		return nil, nil, 0, err
	}
	d = &core.Deployment{Eng: eng, Graph: graph, Auth: auth, Cfg: cfg, Sensors: sensors, BSIndex: bs}
	return d, wrapped, time.Since(t0), nil
}

// routeWatch records, from the sim Trace hook, when each node first
// rebroadcast the routing beacon: the moment it acquired a route, and so
// the end of its key setup.
type routeWatch struct{ first []time.Duration }

func (w *routeWatch) observe(ev sim.TraceEvent) {
	if w.first[ev.From] == 0 && len(ev.Pkt) > 0 && wire.Type(ev.Pkt[0]) == wire.TBeacon {
		w.first[ev.From] = ev.At
	}
}

// keysetup keys one large deployment, from boot through the first beacon
// flood. Set-up is topology, provisioning and engine construction; the
// measured phase is RunSetup.
func (sz sizes) keysetup(seed uint64, tr *tracer, reg *obs.Registry) (trial, error) {
	var t trial
	n := sz.keysetupNodes
	route := &routeWatch{first: make([]time.Duration, n)}
	d, _, setup, err := deploy(tr, reg, n, seed, protocolConfig(), route.observe)
	t.setup = setup
	if err != nil {
		return t, err
	}
	m := startMeasured(tr, reg)
	tr.begin(lSim)
	err = d.RunSetup()
	tr.end()
	m.stop(&t)
	if err != nil {
		return t, err
	}
	if err := d.VerifyClusterInvariants(); err != nil {
		return t, err
	}
	c := &t.counts
	c.Attempted = n
	for i, s := range d.Sensors {
		ks := s.KeyStore().Export()
		if !ks.Master.IsZero() || !ks.AddMaster.IsZero() {
			c.Bad++
			continue
		}
		routed := i == d.BSIndex || s.Hop() != core.HopUnknown
		if s.Phase() == core.PhaseOperational && ks.InCluster && routed {
			c.Passed++
			if at := route.first[i]; at > 0 {
				t.lat = append(t.lat, at)
			}
		}
	}
	for _, tx := range d.SetupTxCounts() {
		c.Tx += tx
	}
	c.Keys, c.KeyNodes = keysOf(d.Sensors, d.BSIndex)
	return t, nil
}

// soakBatch drives dense constant-bit-rate readings through a batching
// deployment on a lossless medium. Set-up includes key setup; the
// measured phase injects the schedule and runs the data window plus the
// drain.
func (sz sizes) soakBatch(seed uint64, tr *tracer, reg *obs.Registry) (trial, error) {
	var t trial
	cfg := protocolConfig()
	cfg.BatchSize = 8
	cfg.BatchFlushDelay = 250 * time.Millisecond
	cfg.DataRetries = 2
	d, wrapped, setup, err := deploy(tr, reg, sz.soakNodes, seed, cfg, nil)
	if err == nil {
		t0 := time.Now()
		tr.begin(lSim)
		err = d.RunSetup()
		tr.end()
		setup += time.Since(t0)
	}
	t.setup = setup
	if err != nil {
		return t, err
	}
	hops := make([]int, len(d.Sensors))
	for i, s := range d.Sensors {
		hops[i] = hopOf(s)
	}
	sch, err := newSchedule(seed, hops, sz.senders, sz.soakWindow, soakPeriod)
	if err != nil {
		return t, err
	}
	tx0 := d.Energy().TxCount
	m := startMeasured(tr, reg)
	tr.begin(lSim)
	for _, rd := range sch.readings {
		if wrapped == nil {
			d.SendReading(rd.node, rd.at, rd.data)
			continue
		}
		tn, s, data := wrapped[rd.node], d.Sensors[rd.node], rd.data
		d.Eng.Do(rd.at, rd.node, func(ctx node.Context) {
			tn.do(ctx, func(ctx node.Context) { s.SendReading(ctx, data) })
		})
	}
	d.Eng.Run(dataStart + sz.soakWindow + drain)
	tr.end()
	m.stop(&t)
	t.counts, t.lat = sch.check(d.Deliveries())
	t.counts.Tx = d.Energy().TxCount - tx0
	t.counts.Keys, t.counts.KeyNodes = keysOf(d.Sensors, d.BSIndex)
	return t, nil
}

// labARQ hosts the protocol on transport.Lab with per-link ARQ and ack
// coalescing, core ack-gated retries and one TData frame per reading,
// under Gilbert-Elliott burst loss during the data window. Set-up
// includes key setup over the (then lossless) transport.
func (sz sizes) labARQ(seed uint64, tr *tracer, reg *obs.Registry) (trial, error) {
	var t trial
	n := sz.labNodes
	cfg := protocolConfig()
	cfg.DataRetries = 2
	cfg.Obs = reg.Scope("perfbench", 0)
	t0 := time.Now()
	tr.begin(lTopology)
	graph, err := graphFor(n, seed)
	tr.end()
	if err != nil {
		return t, err
	}
	bs := pickBS(graph)
	tr.begin(lProvision)
	_, sensors := provision(n, bs, seed, cfg)
	tr.end()
	behs, wrapped := behaviors(tr, sensors, lTransport)
	plan := &faults.Plan{Events: []faults.Event{{
		Kind: faults.KindBurst, At: dataStart, Until: dataStart + sz.labWindow,
		PGB: 0.015, PBG: 0.25, LossGood: 0, LossBad: 0.5,
	}}}
	inj := faults.NewInjector(plan, xrand.New(seed).Split(faultLabel))
	inj.SetMetrics(faults.NewMetrics(reg))
	// Every frame the transport puts on a link passes the Drop seam
	// exactly once, so counting calls counts link transmissions.
	var frames int64
	drop := func(now time.Duration, from, to int) bool {
		frames++
		return inj.Drop(now, from, to)
	}
	tr.begin(lTransportBuild)
	lab, err := transport.NewLab(transport.LabConfig{
		Graph:     graph,
		Seed:      seed,
		Transport: transport.Config{ARQ: true, AckDelay: labAckDelay},
		Drop:      drop,
		Metrics:   transport.NewMetrics(reg),
	}, behs)
	tr.end()
	if err != nil {
		return t, err
	}
	tr.begin(lTransport)
	lab.Run(dataStart)
	tr.end()
	t.setup = time.Since(t0)

	hops := make([]int, n)
	for i, s := range sensors {
		hops[i] = hopOf(s)
	}
	sch, err := newSchedule(seed, hops, sz.senders, sz.labWindow, labPeriod)
	if err != nil {
		return t, err
	}
	frames0 := frames
	m := startMeasured(tr, reg)
	tr.begin(lTransport)
	for _, rd := range sch.readings {
		s, data := sensors[rd.node], rd.data
		if wrapped == nil {
			lab.Do(rd.at, rd.node, func(ctx node.Context) { s.SendReading(ctx, data) })
			continue
		}
		tn := wrapped[rd.node]
		lab.Do(rd.at, rd.node, func(ctx node.Context) {
			tn.do(ctx, func(ctx node.Context) { s.SendReading(ctx, data) })
		})
	}
	lab.Run(dataStart + sz.labWindow + drain)
	tr.end()
	m.stop(&t)
	t.counts, t.lat = sch.check(sensors[bs].Deliveries())
	t.linkFrames = frames - frames0
	t.counts.Tx = int(t.linkFrames)
	t.counts.Keys, t.counts.KeyNodes = keysOf(sensors, bs)
	return t, nil
}

// hopOf is a sensor's routing-gradient height, or -1 without a route.
func hopOf(s *core.Sensor) int {
	if s.Hop() == core.HopUnknown {
		return -1
	}
	return int(s.Hop())
}

// keysOf sums the cluster keys held by the non-BS clustered sensors.
func keysOf(sensors []*core.Sensor, bs int) (keys, nodes int) {
	for i, s := range sensors {
		if _, ok := s.Cluster(); ok && i != bs {
			keys += s.ClusterKeyCount()
			nodes++
		}
	}
	return keys, nodes
}

type reading struct {
	node int
	at   time.Duration
	data []byte
}

type readingKey struct {
	origin node.ID
	seq    uint32
}

// schedule is an open-loop reading schedule in virtual time.
type schedule struct {
	readings []reading
	index    map[readingKey]int
}

// newSchedule picks senders and payloads from the seed. Senders sit at
// evenly spaced quantiles of the routed nodes' hop distances, so every
// seed's readings travel the same mix of path lengths; each sends one
// random payload per period, phase-staggered across senders, from
// dataStart for window. A sensor numbers its readings 1, 2, ... in send
// order, which fixes the (origin, seq) each scheduled reading must
// arrive under.
func newSchedule(seed uint64, hops []int, senders int, window, period time.Duration) (schedule, error) {
	rng := xrand.New(seed).Split(scheduleLabel)
	var cand []int
	for i, h := range hops {
		if h > 0 {
			cand = append(cand, i)
		}
	}
	if len(cand) < senders {
		return schedule{}, fmt.Errorf("only %d routed nodes for %d senders", len(cand), senders)
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	sort.SliceStable(cand, func(a, b int) bool { return hops[cand[a]] < hops[cand[b]] })
	chosen := make([]int, senders)
	for k := range chosen {
		chosen[k] = cand[(2*k+1)*len(cand)/(2*senders)]
	}
	rng.Shuffle(senders, func(i, j int) { chosen[i], chosen[j] = chosen[j], chosen[i] })

	sch := schedule{index: map[readingKey]int{}}
	seq := map[int]uint32{}
	for at := dataStart; at < dataStart+window; at += period {
		for k, s := range chosen {
			data := make([]byte, payloadSize)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			seq[s]++
			sch.index[readingKey{node.ID(s), seq[s]}] = len(sch.readings)
			sch.readings = append(sch.readings, reading{
				node: s,
				at:   at + time.Duration(k)*period/time.Duration(senders),
				data: data,
			})
		}
	}
	return sch, nil
}

// check matches the base station's deliveries against the schedule and
// returns the latency of each reading that passed. A missing reading
// only lowers Passed; an unknown, duplicated, unencrypted or altered one
// counts as Bad.
func (sch schedule) check(dels []core.Delivery) (counts, []time.Duration) {
	c := counts{Attempted: len(sch.readings)}
	got := make([]bool, len(sch.readings))
	var lat []time.Duration
	for _, d := range dels {
		i, ok := sch.index[readingKey{d.Origin, d.Seq}]
		if !ok || got[i] || !d.Encrypted || !bytes.Equal(d.Data, sch.readings[i].data) {
			c.Bad++
			continue
		}
		got[i] = true
		c.Passed++
		lat = append(lat, d.At-sch.readings[i].at)
	}
	return c, lat
}

// percentiles returns the nearest-rank median and 99th percentile.
func percentiles(v []time.Duration) (p50, p99 time.Duration, n int) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	slices.Sort(v)
	rank := func(q float64) time.Duration {
		i := int(math.Ceil(q*float64(len(v)))) - 1
		return v[max(i, 0)]
	}
	return rank(0.50), rank(0.99), len(v)
}
