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
	"repro/internal/topology"
	"repro/internal/xrand"
)

// labGoldenHashes pin the lab's schedule byte for byte, with coalesced
// and with per-frame acks. They were recorded before the retransmit
// state and the event heap were rewritten; any change to event order,
// jitter draws or retransmit timing moves them.
var labGoldenHashes = map[time.Duration]string{
	5 * time.Millisecond: "91d3a5759209a7a93f7dc561c8d2d4afa24c7aa29f758cdc29441c688f1e7d98",
	0:                    "6cfd7615839423406aeff728e95d9e4b21f6e6ea77763349b43e2881d3ff173b",
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
	auth := core.AuthorityFromSeed(seed, cfg.ChainLength)
	sensors := make([]*core.Sensor, n)
	behaviors := make([]node.Behavior, n)
	for i := range sensors {
		m := auth.MaterialFor(node.ID(i))
		if i == 0 {
			sensors[i] = core.NewBaseStation(cfg, m, auth)
		} else {
			sensors[i] = core.NewSensor(cfg, m)
		}
		behaviors[i] = sensors[i]
	}
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
