package experiments

import (
	"fmt"
	"slices"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/baseline/blom"
	"repro/internal/baseline/globalkey"
	"repro/internal/baseline/leap"
	"repro/internal/baseline/pairwise"
	"repro/internal/baseline/randomkp"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// StorageResult compares per-node key storage across schemes as the
// network grows — the paper's Section II scalability claim: "The number
// of keys stored in sensor nodes is independent of the network size."
type StorageResult struct {
	// Curves holds one keys-per-node-vs-network-size series per scheme.
	Curves []*stats.Series
	// Density is the fixed density the sweep ran at.
	Density float64
}

// allSchemes instantiates every comparison scheme over one deployment.
func allSchemes(d *core.Deployment, seed uint64) ([]baseline.Scheme, error) {
	rng := xrand.New(seed)
	rk, err := randomkp.New(d.Graph, randomkp.Params{PoolSize: 10000, RingSize: 100, Q: 1}, rng.Split(1))
	if err != nil {
		return nil, err
	}
	bl, err := blom.New(d.Graph, blom.DefaultParams(), rng.Split(2))
	if err != nil {
		return nil, err
	}
	return []baseline.Scheme{
		adversary.NewProtocolScheme(d),
		globalkey.New(d.Graph),
		pairwise.New(d.Graph),
		rk,
		bl,
		leap.New(d.Graph),
	}, nil
}

// Storage sweeps network sizes at a fixed density and records mean
// keys-per-node for every scheme. The shapes to expect: localized,
// global-key, random-kp, and blom are flat (constant storage); leap grows
// with density but not size; pairwise-unique grows linearly with size —
// which is why the paper rules it out.
func Storage(o Options, sizes []int, density float64) (*StorageResult, error) {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{500, 1000, 2000, 4000}
	}
	if density == 0 {
		density = 12.5
	}
	curves := map[string]*stats.Series{}
	// One trial's mean keys-per-node for every scheme, in allSchemes order.
	type schemeObs struct {
		name string
		keys float64
	}
	o, workers := o.pool(slices.Max(sizes), len(sizes)*o.Trials)
	obs, err := runner.Grid(workers, len(sizes), o.Trials,
		func(point, trial int) ([]schemeObs, error) {
			opt := o
			opt.N = sizes[point]
			d, err := deployTrial(opt, density, point, trial)
			if err != nil {
				return nil, err
			}
			schemes, err := allSchemes(d, xrand.TrialSeed(o.Seed^saltScheme, point, trial))
			if err != nil {
				return nil, err
			}
			out := make([]schemeObs, len(schemes))
			for i, s := range schemes {
				sum := 0
				for u := 0; u < d.Graph.N(); u++ {
					sum += s.KeysPerNode(u)
				}
				out[i] = schemeObs{s.Name(), float64(sum) / float64(d.Graph.N())}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	for point, n := range sizes {
		for _, trialObs := range obs[point] {
			for _, ob := range trialObs {
				series, ok := curves[ob.name]
				if !ok {
					series = stats.NewSeries(ob.name)
					curves[ob.name] = series
				}
				series.Observe(float64(n), ob.keys)
			}
		}
	}
	res := &StorageResult{Density: density}
	for _, name := range []string{"localized", "global-key", "pairwise-unique", "random-kp", "blom-multispace", "leap"} {
		if s, ok := curves[name]; ok {
			res.Curves = append(res.Curves, s)
		}
	}
	return res, nil
}

// Table renders the storage comparison.
func (r *StorageResult) Table() string {
	return fmt.Sprintf("Per-node key storage vs network size (density %.1f)\n", r.Density) +
		stats.Table("n", r.Curves...)
}
