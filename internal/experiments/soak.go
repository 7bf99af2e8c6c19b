package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// This file holds the soak experiment family: sustained data-plane
// throughput under steady-state traffic, with batched sealing on vs.
// off at identical seeds and identical send schedules. Three traffic
// models exercise the batcher's flush triggers differently — CBR fills
// batches predictably, Gilbert-Elliott burst loss interleaves flushes
// with retransmissions, and event-driven traffic arrives in correlated
// spikes that fill batches instantly and then go quiet (deadline
// flushes). The family reports deterministic virtual-time metrics;
// BenchmarkSoakThroughput reuses PrepareSoak/Run to put a wall-clock
// number on the same workload.

// saltSoak separates the event-model arrival process from the
// deployment stream (see the salt table in experiments.go and
// docs/DETERMINISM.md).
const saltSoak = 0x5c4e3e07

// SoakModels lists the steady-state traffic models the soak family
// sweeps, in point order: constant-bit-rate, CBR under Gilbert-Elliott
// burst loss, and event-driven correlated spikes.
var SoakModels = []string{"cbr", "burst", "event"}

// Soak workload shape. The injection window is long enough that the
// batcher reaches steady state, and the drain tail covers the retry
// backoff ladder plus the batch flush deadline.
const (
	soakStart   = 2 * time.Second
	soakWindow  = 3 * time.Second
	soakPeriod  = 100 * time.Millisecond
	soakSenders = 30
	soakDrain   = 2 * time.Second
)

// SoakLoad shapes the soak workload. The zero value is the experiment
// family's deterministic default; the throughput benchmark passes a
// denser load (shorter period, longer flush delay) so batches actually
// fill — at the family default's per-sender rate, most flushes are
// deadline flushes of one or two readings.
type SoakLoad struct {
	// Period is the CBR per-sender send period (default 100ms).
	Period time.Duration
	// Window is the injection window (default 3s).
	Window time.Duration
	// Senders caps how many nodes originate readings (default 30).
	Senders int
	// FlushDelay, when > 0, overrides core.Config.BatchFlushDelay for
	// the trial (only meaningful with batching on).
	FlushDelay time.Duration
}

func (l SoakLoad) withDefaults() SoakLoad {
	if l.Period <= 0 {
		l.Period = soakPeriod
	}
	if l.Window <= 0 {
		l.Window = soakWindow
	}
	if l.Senders <= 0 {
		l.Senders = soakSenders
	}
	return l
}

// soakSend is one scheduled reading: node fires at virtual time at.
type soakSend struct {
	node int
	at   time.Duration
}

// soakSchedule builds the deterministic send schedule for one trial.
// The schedule is a pure function of (options, model, load, point,
// trial) and is shared verbatim by the batch-on and batch-off arms, so
// the two arms face byte-identical offered load.
func soakSchedule(o Options, model string, load SoakLoad, point, trial int, senders []int) ([]soakSend, error) {
	var sched []soakSend
	end := soakStart + load.Window
	switch model {
	case "cbr", "burst":
		// Every sender fires once per period, phase-staggered so the
		// medium sees a constant rate rather than synchronized waves.
		phase := load.Period / time.Duration(len(senders))
		for at := soakStart; at < end; at += load.Period {
			for k, s := range senders {
				sched = append(sched, soakSend{node: s, at: at + time.Duration(k)*phase})
			}
		}
	case "event":
		// Correlated spikes: at seeded random instants, a seeded random
		// contiguous run of senders all report within milliseconds (the
		// "everyone near the event sees it" pattern). Drawn from its own
		// salted stream so the deployment never feels the extra axis.
		rng := xrand.New(xrand.TrialSeed(o.Seed^saltSoak, point, trial))
		at := soakStart
		for {
			at += 20*time.Millisecond + time.Duration(rng.Uint64n(uint64(180*time.Millisecond)))
			if at >= end {
				break
			}
			size := 1 + int(rng.Uint64n(uint64(len(senders))))
			first := int(rng.Uint64n(uint64(len(senders))))
			for j := 0; j < size; j++ {
				s := senders[(first+j)%len(senders)]
				sched = append(sched, soakSend{node: s, at: at + time.Duration(j)*time.Millisecond})
			}
		}
	default:
		return nil, fmt.Errorf("experiments: unknown soak model %q (want one of %v)", model, SoakModels)
	}
	return sched, nil
}

// SoakTrialStats are the deterministic virtual-time measurements of one
// soak trial. Wall-clock throughput is deliberately absent: it belongs
// to the benchmark harness, not to byte-equivalence-tested results.
type SoakTrialStats struct {
	// Offered is the number of readings the schedule injected.
	Offered int
	// Delivered is how many the base station accepted end to end.
	Delivered int
	// TxFrames is the network-wide transmission count of the data
	// phase (setup traffic excluded): data frames, relays, retries,
	// and echo acks all land here, so it exposes what batching saves.
	TxFrames int
	// Window is the injection window (goodput denominator).
	Window time.Duration
}

// SoakRun is a deployment that finished key setup and holds a pending
// soak schedule. Splitting preparation from the data phase lets the
// benchmark wall-clock only the part batching accelerates.
type SoakRun struct {
	d      *core.Deployment
	sched  []soakSend
	baseTx int
	window time.Duration
}

// PrepareSoak stands up one deployment for (point, trial) at the
// family-default load, runs key setup, and computes the send schedule,
// without injecting anything yet. batch > 1 turns on batched sealing
// (core.Config.BatchSize); batch <= 1 sends each reading in its own
// DATA frame at once.
func PrepareSoak(o Options, model string, batch, point, trial int) (*SoakRun, error) {
	return PrepareSoakLoad(o, model, batch, point, trial, SoakLoad{})
}

// PrepareSoakLoad is PrepareSoak with an explicit workload shape.
func PrepareSoakLoad(o Options, model string, batch, point, trial int, load SoakLoad) (*SoakRun, error) {
	o = o.withDefaults()
	load = load.withDefaults()
	cfg := core.DefaultConfig()
	cfg.DataRetries = 2
	cfg.BatchSize = batch
	if load.FlushDelay > 0 {
		cfg.BatchFlushDelay = load.FlushDelay
	}
	var plan *faults.Plan
	if model == "burst" {
		plan = &faults.Plan{Events: []faults.Event{{
			Kind: faults.KindBurst, At: soakStart, Until: soakStart + load.Window,
			PGB: 0.05, PBG: 0.25, LossGood: 0, LossBad: 0.5,
		}}}
	}
	d, err := core.Deploy(core.DeployOptions{
		N: o.N, Density: 10, Config: cfg, Faults: plan,
		Seed:   xrand.TrialSeed(o.Seed, point, trial),
		Obs:    o.scope("soak-"+model, point, trial),
		Shards: o.shards(o.N),
	})
	if err != nil {
		return nil, err
	}
	if err := d.RunSetup(); err != nil {
		return nil, err
	}
	senders := make([]int, 0, load.Senders)
	stride := o.N / load.Senders
	if stride == 0 {
		stride = 1
	}
	for i := 1; i < o.N && len(senders) < load.Senders; i += stride {
		if i == d.BSIndex {
			continue
		}
		senders = append(senders, i)
	}
	sched, err := soakSchedule(o, model, load, point, trial, senders)
	if err != nil {
		return nil, err
	}
	return &SoakRun{d: d, sched: sched, baseTx: d.Energy().TxCount, window: load.Window}, nil
}

// Run injects the schedule, drives the engine through the window plus
// the drain tail, and reports the trial's virtual-time measurements.
// This is the region the throughput benchmark wall-clocks.
func (r *SoakRun) Run() SoakTrialStats {
	for j, s := range r.sched {
		r.d.SendReading(s.node, s.at, []byte{
			byte(s.node), byte(s.node >> 8), byte(j), byte(j >> 8),
		})
	}
	r.d.Eng.Run(soakStart + r.window + soakDrain)
	return SoakTrialStats{
		Offered:   len(r.sched),
		Delivered: len(r.d.Deliveries()),
		TxFrames:  r.d.Energy().TxCount - r.baseTx,
		Window:    r.window,
	}
}

// SoakTrial is PrepareSoak + Run in one call: the per-trial unit the
// experiment family grids over.
func SoakTrial(o Options, model string, batch, point, trial int) (SoakTrialStats, error) {
	run, err := PrepareSoak(o, model, batch, point, trial)
	if err != nil {
		return SoakTrialStats{}, err
	}
	return run.Run(), nil
}

// SoakResult compares batched and unbatched steady-state throughput
// across traffic models. The x axis is the model index into Models.
type SoakResult struct {
	// GoodputBatch / GoodputOff: readings the BS accepted per virtual
	// second of the injection window.
	GoodputBatch, GoodputOff *stats.Series
	// DeliveryBatch / DeliveryOff: delivered / offered.
	DeliveryBatch, DeliveryOff *stats.Series
	// TxPerReadingBatch / TxPerReadingOff: network transmissions per
	// delivered reading — the wire-level cost batching amortizes.
	TxPerReadingBatch, TxPerReadingOff *stats.Series
	// Models echoes the model axis; Batch is the batch-arm size.
	Models []string
	Batch  int
	N      int
}

// Soak runs the sustained-throughput comparison: for each traffic model
// it deploys o.Trials networks and runs the identical send schedule
// twice — batched sealing at the given batch size, then one reading
// per frame — at identical seeds. batch <= 0 defaults to 8.
func Soak(o Options, models []string, batch int) (*SoakResult, error) {
	o = o.withDefaults()
	if len(models) == 0 {
		models = SoakModels
	}
	if batch <= 0 {
		batch = 8
	}
	type soakObs struct {
		batch, off SoakTrialStats
	}
	o, workers := o.pool(o.N, len(models)*o.Trials)
	obs, err := runner.Grid(workers, len(models), o.Trials,
		func(point, trial int) (soakObs, error) {
			b, err := SoakTrial(o, models[point], batch, point, trial)
			if err != nil {
				return soakObs{}, fmt.Errorf("soak %s trial %d batch: %w", models[point], trial, err)
			}
			off, err := SoakTrial(o, models[point], 0, point, trial)
			if err != nil {
				return soakObs{}, fmt.Errorf("soak %s trial %d off: %w", models[point], trial, err)
			}
			return soakObs{batch: b, off: off}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &SoakResult{
		GoodputBatch:      stats.NewSeries("goodput-batch"),
		GoodputOff:        stats.NewSeries("goodput-off"),
		DeliveryBatch:     stats.NewSeries("delivery-batch"),
		DeliveryOff:       stats.NewSeries("delivery-off"),
		TxPerReadingBatch: stats.NewSeries("tx/reading-batch"),
		TxPerReadingOff:   stats.NewSeries("tx/reading-off"),
		Models:            models,
		Batch:             batch,
		N:                 o.N,
	}
	perReading := func(s SoakTrialStats) float64 {
		if s.Delivered == 0 {
			return 0
		}
		return float64(s.TxFrames) / float64(s.Delivered)
	}
	for point := range models {
		x := float64(point)
		for _, ob := range obs[point] {
			res.GoodputBatch.Observe(x, float64(ob.batch.Delivered)/ob.batch.Window.Seconds())
			res.GoodputOff.Observe(x, float64(ob.off.Delivered)/ob.off.Window.Seconds())
			if ob.batch.Offered > 0 {
				res.DeliveryBatch.Observe(x, float64(ob.batch.Delivered)/float64(ob.batch.Offered))
			}
			if ob.off.Offered > 0 {
				res.DeliveryOff.Observe(x, float64(ob.off.Delivered)/float64(ob.off.Offered))
			}
			res.TxPerReadingBatch.Observe(x, perReading(ob.batch))
			res.TxPerReadingOff.Observe(x, perReading(ob.off))
		}
	}
	return res, nil
}

// Table renders the soak comparison with the model axis spelled out.
func (r *SoakResult) Table() string {
	header := fmt.Sprintf("Soak: sustained data-plane throughput, n=%d, density 10, batch=%d\n", r.N, r.Batch)
	for i, m := range r.Models {
		header += fmt.Sprintf("  model %d = %s\n", i, m)
	}
	return header + stats.Table("model",
		r.GoodputBatch, r.GoodputOff,
		r.DeliveryBatch, r.DeliveryOff,
		r.TxPerReadingBatch, r.TxPerReadingOff)
}
