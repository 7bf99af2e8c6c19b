package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// ScaleSizes is the network-size axis of the large-deployment sweep:
// the 10^5-10^6 range the paper's locality claim promises to reach but
// the figure reproductions previously could not (one serial event loop
// per trial). Callers with less patience pass their own sizes.
var ScaleSizes = []int{100_000, 250_000, 1_000_000}

// scaleMaxHistSize caps the cluster-size axis of the streamed Figure 1
// histogram; clusters at the densities we sweep stay far below it, and
// anything larger folds into the final overflow bucket so the result
// stays fixed-size no matter the deployment.
const scaleMaxHistSize = 64

// ScalePoint is one network size's measurements, accumulated with the
// streaming estimators in internal/stats so the experiment adds O(1)
// memory per node visited (the deployment itself remains the only
// O(nodes) structure). Wall-clock throughput fields are excluded from
// JSON: the serialized result is a pure function of Options, which is
// what the shard/worker equivalence harness compares.
type ScalePoint struct {
	// N is the deployed network size.
	N int `json:"n"`
	// Clustered counts nodes that joined a cluster (the base station
	// does not cluster; isolated nodes, if any, cannot).
	Clustered int `json:"clustered"`
	// Clusters counts clusters (every cluster has exactly one head, so
	// this equals the head count and Figure 7's mean size needs no
	// per-cluster storage).
	Clusters int `json:"clusters"`
	// Keys streams Figure 6: cluster keys stored per clustered node.
	Keys *stats.Welford `json:"keys"`
	// KeysP90 sketches the keys-per-node 90th percentile — the storage
	// tail that a mean alone hides at scale.
	KeysP90 *stats.P2Quantile `json:"keys_p90"`
	// SizeCounts is Figure 1: clusters by member count (index = size,
	// index 0 unused, last index accumulates overflow).
	SizeCounts []int `json:"size_counts"`

	// Events is the number of discrete events the engine processed.
	// Deterministic, but throughput context rather than figure data.
	Events int `json:"events"`
	// Wall and EventsPerSecCore measure this run's throughput (summed,
	// respectively harmonic, across trials), and Shards is the shard
	// count each trial ran on, which EventsPerSecCore divides by. All
	// three depend on the machine, so they stay out of the serialized
	// result.
	Wall             time.Duration `json:"-"`
	EventsPerSecCore float64       `json:"-"`
	Shards           int           `json:"-"`
}

// MeanSize returns Figure 7's nodes-per-cluster mean.
func (p *ScalePoint) MeanSize() float64 {
	if p.Clusters == 0 {
		return 0
	}
	return float64(p.Clustered) / float64(p.Clusters)
}

// HeadFraction returns Figure 8's clusterheads-per-node fraction.
func (p *ScalePoint) HeadFraction() float64 {
	if p.Clustered == 0 {
		return 0
	}
	return float64(p.Clusters) / float64(p.Clustered)
}

// SizeFractions returns Figure 1's distribution (fraction of clusters
// per member count).
func (p *ScalePoint) SizeFractions() []float64 {
	out := make([]float64, len(p.SizeCounts))
	if p.Clusters == 0 {
		return out
	}
	for i, c := range p.SizeCounts {
		out[i] = float64(c) / float64(p.Clusters)
	}
	return out
}

// ScaleSweepResult carries the per-size points of the large-deployment
// sweep.
type ScaleSweepResult struct {
	// Points holds one entry per requested size, in request order.
	Points []*ScalePoint `json:"points"`
	// Density is the fixed density the sweep ran at.
	Density float64 `json:"density"`
	// Shards is the shard count the largest size resolved to (smaller
	// sizes may resolve to fewer; see ScalePoint.Shards). Excluded from
	// JSON: the invariance contract is precisely that the serialized
	// result does not depend on it.
	Shards int `json:"-"`
	// PeakRSSBytes is the process's resident-memory high-water mark
	// (VmHWM) sampled when the sweep finishes — the number the ROADMAP's
	// 1M-nodes-in-2GB target is measured against. Machine-dependent, so
	// like the throughput fields it stays out of the serialized result.
	PeakRSSBytes int64 `json:"-"`
}

// ScaleSweep reproduces the Figure 1/6/7/8 measurements at large
// network sizes on the sharded engine. Where DensitySweep sweeps
// density at fixed n, ScaleSweep sweeps n at fixed density — the
// locality claim under test is that every per-node curve is flat in n.
// All statistics are streamed (Welford, P² sketch, fixed-size
// histogram, plain counters) through core.Deployment.VisitClustered,
// so beyond the deployment itself memory does not grow with n.
func ScaleSweep(o Options, sizes []int, density float64) (*ScaleSweepResult, error) {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = ScaleSizes
	}
	if density <= 0 {
		density = 10
	}
	// One point at a time, trials fanned out on the nested pool: the
	// per-trial accumulators are tiny, so merging per-point keeps peak
	// memory at workers-many deployments, same as every other family.
	res := &ScaleSweepResult{Density: density}
	for point, n := range sizes {
		po, workers := o.pool(n, o.Trials)
		res.Shards = max(res.Shards, po.shards(n))
		trials, err := runner.Map(workers, o.Trials, func(trial int) (*ScalePoint, error) {
			return scaleTrial(po, n, density, point, trial)
		})
		if err != nil {
			return nil, fmt.Errorf("scale n=%d: %w", n, err)
		}
		res.Points = append(res.Points, mergeScaleTrials(trials))
	}
	res.PeakRSSBytes = obs.PeakRSSBytes()
	return res, nil
}

// scaleTrial deploys one n-node network, runs key setup, and streams
// the figure statistics out of it.
func scaleTrial(o Options, n int, density float64, point, trial int) (*ScalePoint, error) {
	d, err := core.Deploy(core.DeployOptions{
		N:       n,
		Density: density,
		Seed:    xrand.TrialSeed(o.Seed, point, trial),
		Obs:     o.scope("scale", point, trial),
		Shards:  o.shards(n),
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// Same clock span as RunSetup: through key setup, the operational
	// transition, and the first beacon flood.
	events := d.Eng.Run(d.Cfg.OperationalAt + time.Second)
	wall := time.Since(start)

	p := &ScalePoint{
		N:          n,
		Keys:       &stats.Welford{},
		KeysP90:    stats.NewP2Quantile(0.90),
		SizeCounts: make([]int, scaleMaxHistSize+1),
		Events:     events,
		Wall:       wall,
		Shards:     d.Eng.ShardCount(),
	}
	// Per-cluster member counts: O(clusters) scratch, freed on return.
	// This is the one sub-linear-but-not-constant pass (Figure 1 needs
	// sizes, and sizes need a per-cluster tally).
	members := make(map[uint32]int, n/8)
	d.VisitClustered(func(i int, cid uint32, keyCount int, isHead bool) {
		p.Clustered++
		if isHead {
			p.Clusters++
		}
		k := float64(keyCount)
		p.Keys.Add(k)
		p.KeysP90.Add(k)
		members[cid]++
	})
	for _, size := range members {
		if size > scaleMaxHistSize {
			size = scaleMaxHistSize
		}
		p.SizeCounts[size]++
	}
	p.EventsPerSecCore = p.perCore()
	return p, nil
}

// mergeScaleTrials folds per-trial points into one, in trial order (the
// Welford merge is deterministic but order-sensitive; fixed order keeps
// the result a pure function of Options).
func mergeScaleTrials(trials []*ScalePoint) *ScalePoint {
	out := trials[0]
	for _, t := range trials[1:] {
		out.Clustered += t.Clustered
		out.Clusters += t.Clusters
		out.Keys.Merge(t.Keys)
		// P² sketches do not merge exactly; feeding the later trials'
		// sketch medians in would bias the tail, so instead each trial
		// contributes through the shared Welford and the first trial's
		// sketch is reported (trials at equal n are exchangeable).
		for i, c := range t.SizeCounts {
			out.SizeCounts[i] += c
		}
		out.Events += t.Events
		out.Wall += t.Wall
	}
	out.EventsPerSecCore = out.perCore()
	return out
}

// perCore is the event rate per shard goroutine: events over wall time,
// divided by the shard count the point ran on.
func (p *ScalePoint) perCore() float64 {
	if s := p.Wall.Seconds(); s > 0 {
		return float64(p.Events) / s / float64(p.Shards)
	}
	return 0
}

// Table renders the sweep with the per-size figure curves plus the
// (non-deterministic, not serialized) throughput column.
func (r *ScaleSweepResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale sweep, density=%g, shards=%d (Figures 1, 6, 7, 8 at 1e5-1e6 nodes)\n", r.Density, r.Shards)
	if r.PeakRSSBytes > 0 {
		fmt.Fprintf(&b, "peak RSS: %.1f MiB (process high-water mark incl. earlier steps)\n",
			float64(r.PeakRSSBytes)/(1<<20))
	}
	fmt.Fprintf(&b, "%10s %10s %9s %12s %12s %10s %9s %14s\n",
		"n", "clusters", "size", "heads/n", "keys/node", "keys ci95", "keys p90", "events/s/core")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10d %10d %9.3f %12.4f %12.3f %10.3f %9.1f %14.0f\n",
			p.N, p.Clusters, p.MeanSize(), p.HeadFraction(),
			p.Keys.Mean(), p.Keys.CI95(), p.KeysP90.Value(), p.EventsPerSecCore)
	}
	// Figure 1: singleton-cluster fraction is the paper's headline from
	// the distribution plot ("for smaller densities a larger percentage
	// of nodes forms clusters of size one").
	b.WriteString("cluster-size distribution (fraction of clusters):\n")
	fmt.Fprintf(&b, "%10s", "n")
	for size := 1; size <= 8; size++ {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("size=%d", size))
	}
	fmt.Fprintf(&b, " %8s\n", "size>8")
	for _, p := range r.Points {
		fr := p.SizeFractions()
		fmt.Fprintf(&b, "%10d", p.N)
		rest := 0.0
		for size := 9; size < len(fr); size++ {
			rest += fr[size]
		}
		for size := 1; size <= 8; size++ {
			v := 0.0
			if size < len(fr) {
				v = fr[size]
			}
			fmt.Fprintf(&b, " %8.4f", v)
		}
		fmt.Fprintf(&b, " %8.4f\n", rest)
	}
	return b.String()
}
