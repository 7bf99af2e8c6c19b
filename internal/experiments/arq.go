package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/xrand"
)

// This file holds the ARQ chaos variant: the full protocol hosted on
// the transport layer's deterministic virtual-time Lab, with a
// Gilbert-Elliott burst-loss injector wired into the transport seam.
// It measures what per-link ack/retransmit recovers — in key-setup
// completion and in end-to-end delivery — relative to the bare
// fire-and-forget medium, at identical seeds. Unlike the other chaos
// experiments this one exercises internal/transport itself, so it is
// the regression floor for "ARQ actually helps under burst loss".

// saltARQ separates the burst chains driven through the transport seam
// from the deployment stream (see the salt table in experiments.go and
// docs/DETERMINISM.md).
const saltARQ = 0x5c4e3e05

// ARQBurstResult sweeps the bad-state loss probability.
type ARQBurstResult struct {
	// DeliveryARQ / DeliveryBare: end-to-end delivery ratio of readings
	// with the transport's ARQ on and off, same seeds.
	DeliveryARQ, DeliveryBare *stats.Series
	// SetupARQ / SetupBare: fraction of non-BS nodes that finished key
	// setup routable (operational with a beacon-acquired hop gradient).
	SetupARQ, SetupBare *stats.Series
	N                   int
}

// ARQBurst runs the paper's protocol over the reliable transport under
// sustained Gilbert-Elliott burst loss, ARQ on vs. off at identical
// seeds. Every frame — setup traffic, beacons, readings, acks,
// retransmissions — crosses the same lossy seam.
func ARQBurst(o Options, lossBad []float64) (*ARQBurstResult, error) {
	o = o.withDefaults()
	if len(lossBad) == 0 {
		lossBad = []float64{0, 0.3, 0.6, 0.9}
	}
	const (
		settleAt    = 2 * time.Second // setup (OperationalAt≈650ms) + beacon slack
		sendSpacing = 40 * time.Millisecond
		horizon     = 5 * time.Second
		maxSenders  = 25
	)
	arm := func(point, trial int, arqOn bool) (setup, delivery float64, err error) {
		seed := xrand.TrialSeed(o.Seed, point, trial)
		graph, err := topology.Generate(xrand.New(seed), topology.Config{N: o.N, Density: 10})
		if err != nil {
			return 0, 0, err
		}
		cfg := core.DefaultConfig()
		auth := core.AuthorityFromSeed(seed, cfg.ChainLength)
		sensors := make([]*core.Sensor, o.N)
		behaviors := make([]node.Behavior, o.N)
		for i := 0; i < o.N; i++ {
			m := auth.MaterialFor(node.ID(i))
			if i == 0 {
				sensors[i] = core.NewBaseStation(cfg, m, auth)
			} else {
				sensors[i] = core.NewSensor(cfg, m)
			}
			behaviors[i] = sensors[i]
		}
		delivered := 0
		sensors[0].SetOnDeliver(func(core.Delivery) { delivered++ })

		// The whole run sits inside one network-wide burst window, so
		// setup and data traffic face the same medium.
		plan := &faults.Plan{Events: []faults.Event{{
			Kind: faults.KindBurst, At: 0, Until: horizon,
			PGB: 0.05, PBG: 0.25, LossGood: 0, LossBad: lossBad[point],
		}}}
		inj := faults.NewInjector(plan, xrand.New(xrand.TrialSeed(o.Seed^saltARQ, point, trial)))

		var tcfg transport.Config
		if arqOn {
			tcfg = transport.Config{ARQ: true}
		}
		lab, err := transport.NewLab(transport.LabConfig{
			Graph:     graph,
			Seed:      seed,
			Transport: tcfg,
			Drop:      inj.Drop,
		}, behaviors)
		if err != nil {
			return 0, 0, err
		}

		lab.Run(settleAt)
		routable := 0
		for i := 1; i < o.N; i++ {
			if sensors[i].Phase() == core.PhaseOperational && sensors[i].Hop() != core.HopUnknown {
				routable++
			}
		}
		if o.N > 1 {
			setup = float64(routable) / float64(o.N-1)
		}

		sent := 0
		stride := o.N / maxSenders
		if stride == 0 {
			stride = 1
		}
		for i := 1; i < o.N && sent < maxSenders; i += stride {
			src := i
			lab.Do(settleAt+time.Duration(sent+1)*sendSpacing, src, func(ctx node.Context) {
				sensors[src].SendReading(ctx, []byte{byte(src)})
			})
			sent++
		}
		lab.Run(horizon)
		if sent > 0 {
			delivery = float64(delivered) / float64(sent)
		}
		return setup, delivery, nil
	}
	type arqObs struct {
		setupARQ, deliveryARQ   float64
		setupBare, deliveryBare float64
	}
	obs, err := runner.Grid(runner.Workers(o.Workers), len(lossBad), o.Trials,
		func(point, trial int) (arqObs, error) {
			sa, da, err := arm(point, trial, true)
			if err != nil {
				return arqObs{}, err
			}
			sb, db, err := arm(point, trial, false)
			if err != nil {
				return arqObs{}, err
			}
			return arqObs{setupARQ: sa, deliveryARQ: da, setupBare: sb, deliveryBare: db}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &ARQBurstResult{
		DeliveryARQ:  stats.NewSeries("delivery-arq"),
		DeliveryBare: stats.NewSeries("delivery-bare"),
		SetupARQ:     stats.NewSeries("setup-arq"),
		SetupBare:    stats.NewSeries("setup-bare"),
		N:            o.N,
	}
	for point, lb := range lossBad {
		for _, ob := range obs[point] {
			res.DeliveryARQ.Observe(lb, ob.deliveryARQ)
			res.DeliveryBare.Observe(lb, ob.deliveryBare)
			res.SetupARQ.Observe(lb, ob.setupARQ)
			res.SetupBare.Observe(lb, ob.setupBare)
		}
	}
	return res, nil
}

// Table renders the ARQ burst sweep.
func (r *ARQBurstResult) Table() string {
	return fmt.Sprintf("Chaos: transport ARQ under burst loss, n=%d, density 10; x = bad-state loss probability\n", r.N) +
		stats.Table("loss-bad", r.DeliveryARQ, r.DeliveryBare, r.SetupARQ, r.SetupBare)
}
