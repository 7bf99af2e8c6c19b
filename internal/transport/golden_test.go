package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// labGoldenHashes pin the lab's schedule byte for byte, with coalesced
// and with per-frame acks. They were recorded when the Lab moved onto
// the simulation engine, whose per-sender medium streams and
// (at, src, seq) event order replaced the Lab's own global medium
// stream and insertion order; any change to event order, jitter draws
// or retransmit timing moves them.
var labGoldenHashes = map[time.Duration]string{
	5 * time.Millisecond: "b81dee39a4921c22461378e50a006c12ef1cd284f8c13bc5856356f82479023b",
	0:                    "3adc22eec8d6666e9fccee72a3a560ccf0d5616637701de03123846c91f77e77",
}

// coreNodes provisions n core nodes from auth, the base station at
// node 0, and returns them with the same nodes as behaviors.
func coreNodes(cfg core.Config, auth *core.Authority, n int) ([]*core.Sensor, []node.Behavior) {
	sensors := make([]*core.Sensor, n)
	behaviors := make([]node.Behavior, n)
	for i := range sensors {
		if m := auth.MaterialFor(node.ID(i)); i == 0 {
			sensors[i] = core.NewBaseStation(cfg, m, auth)
		} else {
			sensors[i] = core.NewSensor(cfg, m)
		}
		behaviors[i] = sensors[i]
	}
	return sensors, behaviors
}

// goldenLab runs the full protocol on a fixed-seed 120-node lab with ARQ
// (acks coalesced for ackDelay, or one per frame when it is 0),
// Gilbert-Elliott burst loss through Drop, and one relay crashed long
// enough for its neighbours' breakers to open, probe and quarantine
// before it reboots. It returns a hash over the base station's
// delivery sequence (time, origin, seq, bytes), every transport counter
// and the final Lab.Now, plus the metrics for the coverage checks.
func goldenLab(t testing.TB, ackDelay time.Duration) (string, Metrics) {
	t.Helper()
	const (
		n        = 120
		seed     = 20050404
		dataAt   = 2 * time.Second
		crashAt  = 2500 * time.Millisecond
		rebootAt = 20 * time.Second
		horizon  = 24 * time.Second
	)
	graph, err := topology.Generate(xrand.New(seed), topology.Config{N: n, Density: 10, Metric: geom.Torus})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.OperationalAt = cfg.ClusterPhaseEnd + cfg.LinkSpread + 50*time.Millisecond
	cfg.DataRetries = 2
	sensors, behaviors := coreNodes(cfg, core.AuthorityFromSeed(seed, cfg.ChainLength), n)
	plan := &faults.Plan{Events: []faults.Event{{
		Kind: faults.KindBurst, At: dataAt, Until: horizon,
		PGB: 0.03, PBG: 0.25, LossGood: 0, LossBad: 0.6,
	}}}
	inj := faults.NewInjector(plan, xrand.New(seed).Split(7))
	m := NewMetrics(obs.NewRegistry())
	lab, err := NewLab(LabConfig{
		Graph:     graph,
		Seed:      seed,
		Transport: Config{ARQ: true, AckDelay: ackDelay},
		Drop:      inj.Drop,
		Metrics:   m,
	}, behaviors)
	if err != nil {
		t.Fatal(err)
	}
	lab.Run(dataAt)

	// The crashed relay is the base station's first neighbour, so the
	// readings routed through it keep its neighbours' links busy.
	victim := int(graph.Neighbors(0)[0])
	lab.ScheduleCrash(crashAt, victim)
	lab.ScheduleReboot(rebootAt, victim)
	rng := xrand.New(seed).Split(8)
	for k := 0; k < 400; k++ {
		src := 1 + rng.Intn(n-1)
		data := []byte(fmt.Sprintf("r%03d", k))
		lab.Do(dataAt+time.Duration(k)*50*time.Millisecond, src, func(ctx node.Context) {
			sensors[src].SendReading(ctx, data)
		})
	}
	lab.Run(horizon)

	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, d := range sensors[0].Deliveries() {
		put(uint64(d.At))
		put(uint64(d.Origin))
		put(uint64(d.Seq))
		put(uint64(len(d.Data)))
		h.Write(d.Data)
	}
	for _, c := range []*obs.Counter{
		m.TxData, m.TxAcks, m.RxData, m.RxAcks, m.Retransmits, m.DupDrops,
		m.Failures, m.Opens, m.Closes, m.Probes, m.Quarantines, m.ParseErrs,
	} {
		put(c.Value())
	}
	put(uint64(m.OpenLinks.Value()))
	put(uint64(lab.Now()))
	return fmt.Sprintf("%x", h.Sum(nil)), m
}

// TestLabGoldenSchedule requires the lab's schedule to reproduce the
// recorded hash, and the scenario to reach every path it is meant to
// pin: retransmission, breaker open, probe, close and quarantine.
func TestLabGoldenSchedule(t *testing.T) {
	for ackDelay, want := range labGoldenHashes {
		t.Run(fmt.Sprintf("AckDelay=%v", ackDelay), func(t *testing.T) {
			got, m := goldenLab(t, ackDelay)
			for name, c := range map[string]*obs.Counter{
				"retransmits": m.Retransmits, "failures": m.Failures, "opens": m.Opens,
				"probes": m.Probes, "closes": m.Closes, "quarantines": m.Quarantines,
				"dup drops": m.DupDrops,
			} {
				if c.Value() == 0 {
					t.Errorf("golden scenario never reached %s", name)
				}
			}
			if got != want {
				t.Fatalf("lab schedule hash %s, want %s", got, want)
			}
		})
	}
}

// TestBareLabIsTheEngine requires a Lab without a transport to be the
// simulation engine itself: the same seeded 60-node core deployment on
// NewLab and on sim.New, with the same readings sent after set-up, must
// give the identical base-station delivery sequence and the identical
// hop and cluster at every node.
func TestBareLabIsTheEngine(t *testing.T) {
	const (
		n       = 60
		seed    = 31
		dataAt  = 2 * time.Second
		horizon = 4 * time.Second
	)
	graph, err := topology.Generate(xrand.New(seed), topology.Config{N: n, Density: 10, Metric: geom.Torus})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.OperationalAt = cfg.ClusterPhaseEnd + cfg.LinkSpread + 50*time.Millisecond
	auth := core.AuthorityFromSeed(seed, cfg.ChainLength)
	// outcome is the base station's delivery log and each node's
	// gradient height and cluster, one line each.
	outcome := func(sensors []*core.Sensor) []string {
		var out []string
		for _, d := range sensors[0].Deliveries() {
			out = append(out, fmt.Sprintf("delivery at=%d origin=%d seq=%d data=%q", d.At, d.Origin, d.Seq, d.Data))
		}
		for i, s := range sensors {
			cid, ok := s.Cluster()
			out = append(out, fmt.Sprintf("node %d hop=%d cluster=%d/%v", i, s.Hop(), cid, ok))
		}
		return out
	}
	schedule := func(do func(at time.Duration, i int, fn func(node.Context)), sensors []*core.Sensor) {
		for k := 0; k < 40; k++ {
			src, data := 1+(k*7)%(n-1), []byte(fmt.Sprintf("r%02d", k))
			do(dataAt+time.Duration(k)*20*time.Millisecond, src, func(ctx node.Context) {
				sensors[src].SendReading(ctx, data)
			})
		}
	}

	engSensors, engBehaviors := coreNodes(cfg, auth, n)
	eng, err := sim.New(sim.Config{Graph: graph, Seed: seed}, engBehaviors)
	if err != nil {
		t.Fatal(err)
	}
	eng.Boot(0)
	schedule(eng.Do, engSensors)
	eng.Run(horizon)

	labSensors, labBehaviors := coreNodes(cfg, auth, n)
	lab, err := NewLab(LabConfig{Graph: graph, Seed: seed}, labBehaviors)
	if err != nil {
		t.Fatal(err)
	}
	schedule(lab.Do, labSensors)
	lab.Run(horizon)

	want, got := outcome(engSensors), outcome(labSensors)
	if len(engSensors[0].Deliveries()) == 0 {
		t.Fatal("the engine run delivered no reading; the comparison would be empty")
	}
	if len(got) != len(want) {
		t.Fatalf("lab outcome has %d lines, engine %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lab and engine diverge at line %d:\nengine %s\nlab    %s", i, want[i], got[i])
		}
	}
}
