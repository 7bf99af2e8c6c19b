package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline/leap"
	"repro/internal/baseline/randomkp"
	"repro/internal/crypt"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// SetupCostResult is the empirical bootstrap comparison: three key
// establishment protocols executed on the same simulated radio over the
// same topology class, counting actual transmissions — not the
// analytical estimates.
type SetupCostResult struct {
	// Localized / LEAP / RandomKP: setup transmissions per node.
	Localized *stats.Series
	LEAP      *stats.Series
	RandomKP  *stats.Series
	// Energy*: mean per-node setup energy in µJ (captures that EG's one
	// advertisement is 4 bytes per ring entry — fat packets cost energy
	// even when the message COUNT is low).
	EnergyLocalized *stats.Series
	EnergyLEAP      *stats.Series
	EnergyRandomKP  *stats.Series
	N               int
}

// SetupCost runs the key-establishment phase of both the paper's protocol
// and LEAP's bootstrap on identical topology classes and measures real
// per-node transmission counts and energy. This turns Section III's
// qualitative "more expensive bootstrapping phase" into numbers produced
// by executable protocols.
func SetupCost(o Options, densities []float64) (*SetupCostResult, error) {
	o = o.withDefaults()
	if len(densities) == 0 {
		densities = PaperDensities
	}
	res := &SetupCostResult{
		Localized:       stats.NewSeries("localized msgs"),
		LEAP:            stats.NewSeries("leap msgs"),
		RandomKP:        stats.NewSeries("random-kp msgs"),
		EnergyLocalized: stats.NewSeries("localized µJ"),
		EnergyLEAP:      stats.NewSeries("leap µJ"),
		EnergyRandomKP:  stats.NewSeries("random-kp µJ"),
		N:               o.N,
	}
	type costObs struct {
		tx, uj, leapTx, leapUJ, egTx, egUJ float64
	}
	o, workers := o.pool(o.N, len(densities)*o.Trials)
	obs, err := runner.Grid(workers, len(densities), o.Trials,
		func(point, trial int) (costObs, error) {
			density := densities[point]
			seed := xrand.TrialSeed(o.Seed^saltBoot, point, trial)

			// Ours: the usual deployment, counting setup transmissions.
			d, err := deployTrial(o, density, point, trial)
			if err != nil {
				return costObs{}, err
			}
			var ob costObs
			tx := 0
			for i, c := range d.SetupTxCounts() {
				tx += c
				ob.uj += d.Eng.Meter(i).Total()
			}
			ob.tx = float64(tx)

			// LEAP: its bootstrap behaviors on a fresh same-class topology
			// (torus metric, like every experiment deployment).
			g, err := topology.Generate(xrand.New(seed), topology.Config{N: o.N, Density: density, Metric: geom.Torus})
			if err != nil {
				return costObs{}, err
			}
			var ki crypt.Key
			for b := range ki {
				ki[b] = byte(seed >> (b % 8 * 8))
			}
			cfg := leap.DefaultBootConfig()
			behaviors := make([]node.Behavior, o.N)
			for i := range behaviors {
				behaviors[i] = leap.NewBootNode(cfg, node.ID(i), ki)
			}
			eng, err := sim.New(sim.Config{Graph: g, Seed: seed}, behaviors)
			if err != nil {
				return costObs{}, err
			}
			eng.Boot(0)
			eng.Run(cfg.EraseAt + 200*time.Millisecond)
			leapTx := 0
			for i := 0; i < o.N; i++ {
				leapTx += eng.Meter(i).TxCount()
				ob.leapUJ += eng.Meter(i).Total()
			}
			ob.leapTx = float64(leapTx)

			// Eschenauer-Gligor discovery with the classic parameters
			// (P=10000, m=100): one fat advertisement plus one confirm
			// per secured neighbor.
			egCfg := randomkp.DefaultBootConfig()
			egNodes := make([]node.Behavior, o.N)
			egRNG := xrand.New(seed * 17)
			var poolMaster crypt.Key
			poolMaster[0] = byte(seed)
			poolMaster[1] = 0x5A
			for i := range egNodes {
				egNodes[i] = randomkp.NewBootNode(egCfg, node.ID(i), poolMaster,
					10000, 100, egRNG.Split(uint64(i)))
			}
			egEng, err := sim.New(sim.Config{Graph: g, Seed: seed * 19}, egNodes)
			if err != nil {
				return costObs{}, err
			}
			egEng.Boot(0)
			egEng.Run(egCfg.ConfirmAt + 200*time.Millisecond)
			egTx := 0
			for i := 0; i < o.N; i++ {
				egTx += egEng.Meter(i).TxCount()
				ob.egUJ += egEng.Meter(i).Total()
			}
			ob.egTx = float64(egTx)
			return ob, nil
		})
	if err != nil {
		return nil, err
	}
	for point, density := range densities {
		for _, ob := range obs[point] {
			res.Localized.Observe(density, ob.tx/float64(o.N))
			res.EnergyLocalized.Observe(density, ob.uj/float64(o.N))
			res.LEAP.Observe(density, ob.leapTx/float64(o.N))
			res.EnergyLEAP.Observe(density, ob.leapUJ/float64(o.N))
			res.RandomKP.Observe(density, ob.egTx/float64(o.N))
			res.EnergyRandomKP.Observe(density, ob.egUJ/float64(o.N))
		}
	}
	return res, nil
}

// Table renders the empirical bootstrap comparison.
func (r *SetupCostResult) Table() string {
	return fmt.Sprintf("Empirical key-establishment cost, n=%d (all three protocols executed on the simulator)\n", r.N) +
		stats.Table("density", r.Localized, r.LEAP, r.RandomKP,
			r.EnergyLocalized, r.EnergyLEAP, r.EnergyRandomKP)
}
