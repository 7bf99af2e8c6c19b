package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// This file holds the chaos experiment family: the protocol's behavior
// under the deterministic fault plans of internal/faults. CrashChurn
// measures how clustered delivery and the local repair election respond
// to clusterhead crashes; BurstLoss measures what the bounded data-plane
// retransmissions recover under Gilbert-Elliott burst loss. Both drive
// faults exclusively through the plan interface, so every run is a pure
// function of (seed, point, trial) and the serial-equivalence harness
// covers them like any other family.

// saltChaos separates victim selection from the deployment stream (see
// the salt block in experiments.go).
const saltChaos = 0x5c4e3e04

// chaosConfig enables the self-healing machinery at the cadence the
// chaos family measures.
func chaosConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.KeepAlivePeriod = 100 * time.Millisecond
	cfg.DataRetries = 2
	return cfg
}

// CrashChurnResult sweeps the fraction of nodes crashed after setup.
type CrashChurnResult struct {
	// Delivery is the post-crash delivery ratio from surviving nodes.
	Delivery *stats.Series
	// RepairedFrac is the fraction of crashed clusterheads (with at
	// least one surviving member) whose cluster re-elected locally.
	RepairedFrac *stats.Series
	// RepairLatencyMS is the mean time from a head's crash to the first
	// repair claim in its cluster, in milliseconds.
	RepairLatencyMS *stats.Series
	N               int
}

// CrashChurn crashes a seeded random fraction of the network shortly
// after key setup and measures whether the self-healing path keeps
// authenticated readings flowing: clusters whose head died must re-elect
// under their existing cluster key and resume relaying.
func CrashChurn(o Options, fracs []float64) (*CrashChurnResult, error) {
	o = o.withDefaults()
	if len(fracs) == 0 {
		fracs = []float64{0, 0.05, 0.1, 0.2, 0.3}
	}
	cfg := chaosConfig()
	const (
		crashBase    = 2 * time.Second
		crashStagger = 5 * time.Millisecond
	)
	type churnObs struct {
		delivery     float64
		eligible     int
		repaired     int
		latencySumMS float64
	}
	o, workers := o.pool(o.N, len(fracs)*o.Trials)
	obs, err := runner.Grid(workers, len(fracs), o.Trials,
		func(point, trial int) (churnObs, error) {
			// Victim selection draws from its own stream so adding a
			// crash axis never perturbs the deployment.
			pick := xrand.New(xrand.TrialSeed(o.Seed^saltChaos, point, trial))
			candidates := make([]int, 0, o.N-1)
			for i := 1; i < o.N; i++ {
				candidates = append(candidates, i)
			}
			for i := len(candidates) - 1; i > 0; i-- {
				j := int(pick.Uint64n(uint64(i + 1)))
				candidates[i], candidates[j] = candidates[j], candidates[i]
			}
			nVictims := int(fracs[point] * float64(len(candidates)))
			victims := candidates[:nVictims]
			crashAt := make(map[int]time.Duration, nVictims)
			plan := &faults.Plan{}
			for k, v := range victims {
				at := crashBase + time.Duration(k)*crashStagger
				crashAt[v] = at
				plan.Events = append(plan.Events, faults.Event{
					Kind: faults.KindCrash, At: at, Node: v,
				})
			}
			d, err := core.Deploy(core.DeployOptions{
				N: o.N, Density: 10, Config: cfg, Faults: plan,
				Seed:   xrand.TrialSeed(o.Seed, point, trial),
				Obs:    o.scope("crash-churn", point, trial),
				Shards: o.shards(o.N),
			})
			if err != nil {
				return churnObs{}, err
			}
			if err := d.RunSetup(); err != nil {
				return churnObs{}, err
			}
			// Repair claims, observed on the claimants. They land in
			// per-node slots: node i's hook only writes slot i, so
			// collection is shard-safe.
			type claim struct {
				cid uint32
				at  time.Duration
			}
			claims := make([][]claim, len(d.Sensors))
			for i, s := range d.Sensors {
				if s == nil || i == d.BSIndex {
					continue
				}
				s.OnRepaired = func(cid uint32, _ node.ID, at time.Duration) {
					claims[i] = append(claims[i], claim{cid, at})
				}
			}
			// Which victims were heads with at least one surviving member?
			members := make(map[uint32]int)
			for i, s := range d.Sensors {
				if s == nil || i == d.BSIndex {
					continue
				}
				if cid, ok := s.Cluster(); ok && int(cid) != i {
					if _, dead := crashAt[i]; !dead {
						members[cid]++
					}
				}
			}
			var ob churnObs
			for _, v := range victims {
				s := d.Sensors[v]
				if s.Head() == s.ID() && members[uint32(v)] > 0 {
					ob.eligible++
				}
			}
			// Run through the crashes, the miss budget, and election slack.
			lastCrash := crashBase + time.Duration(nVictims)*crashStagger
			miss := core.KeepAliveMisses * cfg.KeepAlivePeriod
			settled := lastCrash + miss + 1500*time.Millisecond
			d.Eng.Run(settled)
			// The first repair of a cluster is its earliest claim.
			firstRepair := make(map[uint32]time.Duration)
			for _, cs := range claims {
				for _, c := range cs {
					if first, ok := firstRepair[c.cid]; !ok || c.at < first {
						firstRepair[c.cid] = c.at
					}
				}
			}
			for _, v := range victims {
				if at, ok := firstRepair[uint32(v)]; ok {
					ob.repaired++
					ob.latencySumMS += float64(at-crashAt[v]) / float64(time.Millisecond)
				}
			}
			// Surviving nodes originate readings; count what the BS accepts.
			before := len(d.Deliveries())
			sent := 0
			stride := o.N / 25
			if stride == 0 {
				stride = 1
			}
			for i := 1; i < o.N && sent < 25; i += stride {
				if i == d.BSIndex || !d.Eng.Alive(i) {
					continue
				}
				d.SendReading(i, settled+time.Duration(sent+1)*40*time.Millisecond, []byte{byte(i)})
				sent++
			}
			d.Eng.Run(settled + 4*time.Second)
			if sent > 0 {
				ob.delivery = float64(len(d.Deliveries())-before) / float64(sent)
			}
			return ob, nil
		})
	if err != nil {
		return nil, err
	}
	res := &CrashChurnResult{
		Delivery:        stats.NewSeries("delivery"),
		RepairedFrac:    stats.NewSeries("repaired-frac"),
		RepairLatencyMS: stats.NewSeries("repair-ms"),
		N:               o.N,
	}
	for point, frac := range fracs {
		for _, ob := range obs[point] {
			res.Delivery.Observe(frac, ob.delivery)
			if ob.eligible > 0 {
				res.RepairedFrac.Observe(frac, float64(ob.repaired)/float64(ob.eligible))
			}
			if ob.repaired > 0 {
				res.RepairLatencyMS.Observe(frac, ob.latencySumMS/float64(ob.repaired))
			}
		}
	}
	return res, nil
}

// Table renders the crash sweep.
func (r *CrashChurnResult) Table() string {
	return fmt.Sprintf("Chaos: crash churn, n=%d, density 10; x = crashed fraction\n", r.N) +
		stats.Table("crash-frac", r.Delivery, r.RepairedFrac, r.RepairLatencyMS)
}

// BurstLossResult sweeps the Gilbert-Elliott bad-state loss probability.
type BurstLossResult struct {
	// DeliveryRetry / DeliveryBare: delivery ratio with the bounded
	// data-plane retransmissions on and off, on the same deployments.
	DeliveryRetry, DeliveryBare *stats.Series
	// DegradedFrac is the fraction of senders left flagged degraded
	// (retry budget exhausted without an implicit ack) in the retry arm.
	DegradedFrac *stats.Series
	N            int
}

// BurstLoss exposes every link to a network-wide burst-loss window while
// readings flow, and measures what the ack-gated retransmissions recover
// relative to the fire-and-forget baseline.
func BurstLoss(o Options, lossBad []float64) (*BurstLossResult, error) {
	o = o.withDefaults()
	if len(lossBad) == 0 {
		lossBad = []float64{0, 0.3, 0.6, 0.9}
	}
	const (
		windowStart = 2 * time.Second
		windowEnd   = 5 * time.Second
	)
	arm := func(point, trial int, retries int) (delivery, degraded float64, err error) {
		cfg := core.DefaultConfig()
		cfg.DataRetries = retries
		plan := &faults.Plan{Events: []faults.Event{{
			Kind: faults.KindBurst, At: windowStart, Until: windowEnd,
			PGB: 0.05, PBG: 0.25, LossGood: 0, LossBad: lossBad[point],
		}}}
		d, err := core.Deploy(core.DeployOptions{
			N: o.N, Density: 10, Config: cfg, Faults: plan,
			Seed:   xrand.TrialSeed(o.Seed, point, trial),
			Obs:    o.scope("burst-loss", point, trial),
			Shards: o.shards(o.N),
		})
		if err != nil {
			return 0, 0, err
		}
		if err := d.RunSetup(); err != nil {
			return 0, 0, err
		}
		sent := 0
		senders := make([]int, 0, 25)
		stride := o.N / 25
		if stride == 0 {
			stride = 1
		}
		for i := 1; i < o.N && sent < 25; i += stride {
			if i == d.BSIndex {
				continue
			}
			d.SendReading(i, windowStart+time.Duration(sent+1)*40*time.Millisecond, []byte{byte(i)})
			senders = append(senders, i)
			sent++
		}
		d.Eng.Run(windowEnd + 2*time.Second)
		if sent > 0 {
			delivery = float64(len(d.Deliveries())) / float64(sent)
		}
		bad := 0
		for _, i := range senders {
			if d.Sensors[i].Degraded() {
				bad++
			}
		}
		if sent > 0 {
			degraded = float64(bad) / float64(sent)
		}
		return delivery, degraded, nil
	}
	type burstObs struct {
		retry, bare, degraded float64
	}
	o, workers := o.pool(o.N, len(lossBad)*o.Trials)
	obs, err := runner.Grid(workers, len(lossBad), o.Trials,
		func(point, trial int) (burstObs, error) {
			withRetry, degraded, err := arm(point, trial, 2)
			if err != nil {
				return burstObs{}, err
			}
			bare, _, err := arm(point, trial, 0)
			if err != nil {
				return burstObs{}, err
			}
			return burstObs{retry: withRetry, bare: bare, degraded: degraded}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &BurstLossResult{
		DeliveryRetry: stats.NewSeries("delivery-retry"),
		DeliveryBare:  stats.NewSeries("delivery-bare"),
		DegradedFrac:  stats.NewSeries("degraded-frac"),
		N:             o.N,
	}
	for point, lb := range lossBad {
		for _, ob := range obs[point] {
			res.DeliveryRetry.Observe(lb, ob.retry)
			res.DeliveryBare.Observe(lb, ob.bare)
			res.DegradedFrac.Observe(lb, ob.degraded)
		}
	}
	return res, nil
}

// Table renders the burst sweep.
func (r *BurstLossResult) Table() string {
	return fmt.Sprintf("Chaos: burst loss, n=%d, density 10; x = bad-state loss probability\n", r.N) +
		stats.Table("loss-bad", r.DeliveryRetry, r.DeliveryBare, r.DegradedFrac)
}
