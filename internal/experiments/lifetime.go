package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// LifetimeResult measures how a finite-battery network degrades under a
// sustained reporting workload — the operational consequence of the
// paper's energy argument, and the situation its node-addition mechanism
// (Section IV-E) exists to repair.
type LifetimeResult struct {
	// FirstDeath is the virtual time of the first battery death.
	FirstDeath time.Duration
	// RoundsToFirstDeath counts completed reporting rounds before it.
	RoundsToFirstDeath int
	// DeliveryByRound tracks the per-round delivery ratio as nodes die.
	DeliveryByRound *stats.Series
	// DeadAtEnd is the fraction of nodes dead when the run stopped.
	DeadAtEnd float64
	// ReplacementsDeployed / ReplacementsJoined / ReplacementsDelivered
	// quantify the Section IV-E repair: how many late nodes were
	// deployed mid-run, how many completed the KMC join, and how many
	// subsequently got a reading through to the base station. (Random
	// replacement positions do not heal the energy hole around the base
	// station — that requires targeted placement — but the join and
	// reporting machinery must work in the degraded network.)
	ReplacementsDeployed, ReplacementsJoined, ReplacementsDelivered int
	N                                                               int
}

// Lifetime runs rounds of network-wide reporting on finite batteries:
// every alive node originates one reading per round. Relays around the
// base station spend the most energy and die first (the classic energy
// hole); delivery decays as the network thins. After 60% of the rounds,
// late-provisioned replacement nodes are deployed to demonstrate the
// paper's refresh-by-addition story.
//
// Unlike the sweep experiments, Lifetime is one continuous simulation —
// every round depends on the battery state the previous rounds left
// behind — so there is no trial fan-out and Options.Workers has no
// effect. It is still fully deterministic: the same Options produce the
// same result byte for byte (the equivalence harness checks this).
func Lifetime(o Options, battery float64, rounds int, withReplacements bool) (*LifetimeResult, error) {
	o = o.withDefaults()
	if battery <= 0 {
		battery = 3e6 // 3 J: enough for setup plus a few hundred relayed packets
	}
	if rounds <= 0 {
		rounds = 20
	}
	reserve := 0
	if withReplacements {
		reserve = o.N / 10
	}
	var firstDeath time.Duration
	deaths := 0
	d, err := core.Deploy(core.DeployOptions{
		N: o.N, Density: 12.5, Seed: o.Seed,
		Battery:     battery,
		ReserveLate: reserve,
		Shards:      o.shards(o.N + reserve),
		OnDeath: func(i int, at time.Duration) {
			deaths++
			if firstDeath == 0 {
				firstDeath = at
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if err := d.RunSetup(); err != nil {
		return nil, err
	}
	res := &LifetimeResult{
		DeliveryByRound: stats.NewSeries("delivery"),
		N:               o.N,
	}
	const roundGap = 2 * time.Second
	var lateIdx []int
	for round := 1; round <= rounds; round++ {
		if withReplacements && round == rounds*3/10 {
			for k := 0; k < reserve; k++ {
				idx, err := d.AddLateNode(d.Eng.Now() + time.Duration(k+1)*10*time.Millisecond)
				if err != nil {
					break
				}
				lateIdx = append(lateIdx, idx)
			}
			res.ReplacementsDeployed = len(lateIdx)
		}
		before := len(d.Deliveries())
		sent := 0
		base := d.Eng.Now()
		for i := 0; i < len(d.Sensors); i++ {
			if i == d.BSIndex || d.Sensors[i] == nil || !d.Eng.Alive(i) {
				continue
			}
			if _, ok := d.Sensors[i].Cluster(); !ok {
				continue
			}
			d.SendReading(i, base+time.Duration(i%100)*5*time.Millisecond, []byte{byte(round)})
			sent++
		}
		d.Eng.Run(base + roundGap)
		if sent == 0 {
			break
		}
		ratio := float64(len(d.Deliveries())-before) / float64(sent)
		res.DeliveryByRound.Observe(float64(round), ratio)
		if firstDeath == 0 {
			res.RoundsToFirstDeath = round
		}
	}
	res.FirstDeath = firstDeath
	res.DeadAtEnd = float64(deaths) / float64(o.N)
	// Replacement integration: joined clusters, and deliveries credited
	// to late-deployed origins.
	delivered := map[uint32]bool{}
	for _, del := range d.Deliveries() {
		delivered[del.Origin] = true
	}
	for _, idx := range lateIdx {
		s := d.Sensors[idx]
		if s == nil {
			continue
		}
		if _, ok := s.Cluster(); ok && s.Phase() == core.PhaseOperational {
			res.ReplacementsJoined++
		}
		if delivered[uint32(idx)] {
			res.ReplacementsDelivered++
		}
	}
	return res, nil
}

// Table renders the lifetime run.
func (r *LifetimeResult) Table() string {
	out := fmt.Sprintf("Network lifetime, n=%d, density 12.5, finite batteries\n", r.N)
	out += fmt.Sprintf("first battery death: %v (after %d full reporting rounds)\n",
		r.FirstDeath, r.RoundsToFirstDeath)
	out += fmt.Sprintf("dead at end of run: %.1f%%\n", 100*r.DeadAtEnd)
	if r.ReplacementsDeployed > 0 {
		out += fmt.Sprintf("replacements: %d deployed, %d joined, %d delivered readings\n",
			r.ReplacementsDeployed, r.ReplacementsJoined, r.ReplacementsDelivered)
	}
	out += stats.Table("round", r.DeliveryByRound)
	return out
}
