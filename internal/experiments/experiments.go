// Package experiments regenerates every figure of the paper's evaluation
// (Section V, Figures 1 and 6-9) and the security-analysis comparisons of
// Sections II/III/VI, over the simulator in internal/sim.
//
// Each experiment is a pure function of an Options value (seed included),
// returns a structured result, and can render itself as the text table the
// benchmark harness and cmd/figures print. EXPERIMENTS.md records the
// paper's reported values next to ours.
package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// PaperDensities is the density axis used throughout the paper's Section V
// figures: average neighbors per node from 8 to 20.
var PaperDensities = []float64{8, 10, 12.5, 15, 17.5, 20}

// Options parameterizes an experiment run.
type Options struct {
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// Trials is the number of independent deployments averaged per point.
	Trials int
	// N is the network size (the paper deploys 2500-3600 nodes for the
	// clustering figures and 2000 for the message-count figure).
	N int
	// Workers bounds how many trials run concurrently: 0 uses one worker
	// per CPU (GOMAXPROCS), 1 forces the serial path, and any other
	// positive value sizes the pool explicitly. Output is bit-identical
	// at every setting; see docs/DETERMINISM.md.
	Workers int
	// Obs, if non-nil, instruments every deployment the experiment
	// stands up against this registry (counters aggregate across trials;
	// events carry per-trial labels). Results are byte-identical with or
	// without it — see docs/DETERMINISM.md on the obs exclusion.
	Obs *obs.Registry
	// Shards is how many goroutines each trial's simulation runs on: 0
	// picks the count from each deployment's size and GOMAXPROCS
	// (sim.AutoShards), or one shard per trial when a step's trials can
	// fill the cores (see pool); 1 forces one inline shard. The trial
	// pool is sized with runner.NestedWorkers on the resolved count, so
	// Workers keeps bounding total concurrency. Like Workers it is a pure
	// parallelism setting: output is byte-identical at every value (see
	// docs/SCALING.md).
	Shards int
}

// scope derives the per-trial observability scope for a deployment, or
// nil when Obs is unset. The trial label flattens (point, trial) the
// same way the runner's grid does, so event labels identify a cell.
func (o Options) scope(run string, point, trial int) *obs.Scope {
	if o.Obs == nil {
		return nil
	}
	return o.Obs.Scope(run, point*o.Trials+trial)
}

// withDefaults fills unset fields with paper-scale values.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trials <= 0 {
		o.Trials = 5
	}
	if o.N <= 0 {
		o.N = 2500
	}
	return o
}

// Validate rejects option values the experiments cannot run with. Zero
// fields are fine (withDefaults fills them); only actively contradictory
// settings — negative counts — are errors. Command-line front ends call
// this once, right after flag parsing, instead of scattering checks.
func (o Options) Validate() error {
	if o.Trials < 0 {
		return fmt.Errorf("experiments: negative Trials %d", o.Trials)
	}
	if o.N < 0 {
		return fmt.Errorf("experiments: negative N %d", o.N)
	}
	if o.Workers < 0 {
		return fmt.Errorf("experiments: negative Workers %d", o.Workers)
	}
	if o.Shards < 0 {
		return fmt.Errorf("experiments: negative Shards %d", o.Shards)
	}
	return nil
}

// shards resolves o.Shards for an n-node deployment on this machine.
// Every deployment an experiment stands up passes the resolved count,
// so it is the one the pool below was sized for.
func (o Options) shards(n int) int { return sim.AutoShards(o.Shards, n, runtime.GOMAXPROCS(0)) }

// pool resolves the trial pool for cells independent trials whose
// largest deployment has n nodes: it returns o with the trials' shard
// setting settled, and the pool's worker count. At Shards 0, when the
// cells alone can keep every core busy (at least GOMAXPROCS of them, on
// a pool at least that large), each trial runs on one shard: trials
// share nothing, while the shards of one trial meet at a barrier every
// epoch. Otherwise each trial runs o.shards(n) goroutines, and the pool
// shrinks to keep Workers meaning total concurrency
// (runner.NestedWorkers); AutoShards grows with n, so a smaller
// deployment never runs more.
func (o Options) pool(n, cells int) (Options, int) {
	procs := runtime.GOMAXPROCS(0)
	if o.Shards == 0 && cells >= procs && runner.Workers(o.Workers) >= procs {
		o.Shards = 1
	}
	return o, runner.NestedWorkers(o.Workers, o.shards(n))
}

// Caps bounds an Options value for experiment families that are too
// event-heavy (or too memory-heavy) to run at the full figure scale.
type Caps struct {
	// MaxN caps the network size (0 = uncapped).
	MaxN int
	// MaxTrials caps the per-point trial count (0 = uncapped).
	MaxTrials int
}

// Apply returns o clamped to the caps.
func (c Caps) Apply(o Options) Options {
	if c.MaxN > 0 && o.N > c.MaxN {
		o.N = c.MaxN
	}
	if c.MaxTrials > 0 && o.Trials > c.MaxTrials {
		o.Trials = c.MaxTrials
	}
	return o
}

// familyCaps names the per-family scale caps cmd/figures applies when the
// user asks for paper-scale settings: data-plane experiments simulate
// every relayed packet, so they run at reduced n; the storage sweep
// instantiates every baseline scheme per trial, so it runs fewer trials.
// Families absent from the map run uncapped.
var familyCaps = map[string]Caps{
	"selective": {MaxN: 1000},
	"storage":   {MaxTrials: 2},
	"election":  {MaxN: 1000},
	"routing":   {MaxN: 1000},
	"freshness": {MaxN: 600},
	"mac":       {MaxN: 800},
	"lifetime":  {MaxN: 500},
	"setupcost": {MaxN: 1000},
	"chaos":     {MaxN: 500, MaxTrials: 3},
	"arq":       {MaxN: 300, MaxTrials: 3},
	// The authority sweep re-deploys the sensor network for every
	// eviction/forgery arm, plus a DKG per trial.
	"authority": {MaxN: 300, MaxTrials: 3},
	// The scale sweep deploys 1e5+-node networks per trial; two trials
	// are enough for the streamed means at that size.
	"scale": {MaxTrials: 2},
	// The soak family injects thousands of readings per trial and runs
	// every model twice (batch on/off at identical seeds).
	"soak": {MaxN: 300, MaxTrials: 3},
	// The mobility family runs keep-alives, periodic beacons, and
	// handoff re-joins for the whole motion window on every trial.
	"mobility": {MaxN: 400, MaxTrials: 3},
}

// CapsFor returns the scale caps for the named experiment family (the
// names cmd/figures' -only flag uses). Unknown names get zero caps.
func CapsFor(family string) Caps { return familyCaps[family] }

// Auxiliary stream salts, XORed into the base seed before TrialSeed so
// that randomness consumed outside the deployment itself (baseline-scheme
// key pools, capture sampling, dropper selection, bootstrap protocol
// runs) never shares a stream with the deployment or with each other.
const (
	saltScheme = 0x5c4e3e01
	saltDrop   = 0x5c4e3e02
	saltBoot   = 0x5c4e3e03
)

// deployTrial stands up one network and runs key setup. The seed is a
// pure function of (base seed, point index, trial index), so a trial's
// outcome is independent of execution order — this is what lets the
// runner fan trials out over workers without changing any result.
func deployTrial(o Options, density float64, point, trial int) (*core.Deployment, error) {
	d, err := core.Deploy(core.DeployOptions{
		N:       o.N,
		Density: density,
		Seed:    xrand.TrialSeed(o.Seed, point, trial),
		Obs:     o.scope("sweep", point, trial),
		Shards:  o.shards(o.N),
	})
	if err != nil {
		return nil, err
	}
	if err := d.RunSetup(); err != nil {
		return nil, err
	}
	return d, nil
}

// SweepResult carries the four per-density curves that Figures 6-9 plot,
// measured on the same deployments.
type SweepResult struct {
	// KeysPerNode is Figure 6: average cluster keys stored per node.
	KeysPerNode *stats.Series
	// NodesPerCluster is Figure 7: average cluster size.
	NodesPerCluster *stats.Series
	// HeadFraction is Figure 8: clusterheads / network size.
	HeadFraction *stats.Series
	// MsgsPerNode is Figure 9: key-setup transmissions per node.
	MsgsPerNode *stats.Series
	// N is the network size the sweep ran at.
	N int
}

// DensitySweep runs the paper's Section V parameter sweep: for each
// density it deploys o.Trials networks, runs the key-setup phase, and
// records the Figure 6/7/8/9 statistics.
func DensitySweep(o Options, densities []float64) (*SweepResult, error) {
	o = o.withDefaults()
	if len(densities) == 0 {
		densities = PaperDensities
	}
	// Each trial reduces its deployment to these four scalars; the merge
	// below replays them into the series in serial (point-major) order.
	type sweepObs struct {
		keys, size, heads, msgs float64
	}
	o, workers := o.pool(o.N, len(densities)*o.Trials)
	obs, err := runner.Grid(workers, len(densities), o.Trials,
		func(point, trial int) (sweepObs, error) {
			d, err := deployTrial(o, densities[point], point, trial)
			if err != nil {
				return sweepObs{}, fmt.Errorf("density %v trial %d: %w", densities[point], trial, err)
			}
			keys := d.KeysPerNode(true)
			var keySum int
			for _, k := range keys {
				keySum += k
			}
			st := d.Clusters()
			tx := d.SetupTxCounts()
			var txSum int
			for _, c := range tx {
				txSum += c
			}
			return sweepObs{
				keys:  float64(keySum) / float64(len(keys)),
				size:  st.MeanSize,
				heads: st.HeadFraction,
				msgs:  float64(txSum) / float64(len(tx)),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		KeysPerNode:     stats.NewSeries("keys/node"),
		NodesPerCluster: stats.NewSeries("nodes/cluster"),
		HeadFraction:    stats.NewSeries("heads/n"),
		MsgsPerNode:     stats.NewSeries("msgs/node"),
		N:               o.N,
	}
	for point, density := range densities {
		for _, ob := range obs[point] {
			res.KeysPerNode.Observe(density, ob.keys)
			res.NodesPerCluster.Observe(density, ob.size)
			res.HeadFraction.Observe(density, ob.heads)
			res.MsgsPerNode.Observe(density, ob.msgs)
		}
	}
	return res, nil
}

// Table renders the sweep as one aligned table over the density axis.
func (r *SweepResult) Table() string {
	header := fmt.Sprintf("Density sweep, n=%d (Figures 6, 7, 8, 9)\n", r.N)
	return header + stats.Table("density",
		r.KeysPerNode, r.NodesPerCluster, r.HeadFraction, r.MsgsPerNode)
}

// Figure1Result is the cluster-size distribution of Figure 1.
type Figure1Result struct {
	// Fractions maps each density to the fraction of clusters having a
	// given member count (index = cluster size; index 0 unused).
	Fractions map[float64][]float64
	N         int
}

// Figure1 measures the distribution of nodes to clusters for the two
// densities the paper plots (8 and 20): "for smaller densities a larger
// percentage of nodes forms clusters of size one. However, the
// probability of this event decreases as the density becomes larger."
func Figure1(o Options, densities ...float64) (*Figure1Result, error) {
	o = o.withDefaults()
	if len(densities) == 0 {
		densities = []float64{8, 20}
	}
	// Jobs return raw per-cluster sizes; histogram counts are insensitive
	// to the (map-iteration) order they arrive in.
	o, workers := o.pool(o.N, len(densities)*o.Trials)
	sizes, err := runner.Grid(workers, len(densities), o.Trials,
		func(point, trial int) ([]int, error) {
			d, err := deployTrial(o, densities[point], point, trial)
			if err != nil {
				return nil, err
			}
			var out []int
			for _, size := range d.Clusters().Sizes {
				out = append(out, size)
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{Fractions: make(map[float64][]float64), N: o.N}
	for point, density := range densities {
		var h stats.Hist
		for _, trialSizes := range sizes[point] {
			for _, size := range trialSizes {
				h.Add(size)
			}
		}
		res.Fractions[density] = h.Fractions()
	}
	return res, nil
}

// MarshalJSON serializes the distribution with its density axis sorted
// (JSON cannot key objects by float64). The equivalence tests compare
// these bytes across worker counts.
func (r *Figure1Result) MarshalJSON() ([]byte, error) {
	type entry struct {
		Density   float64   `json:"density"`
		Fractions []float64 `json:"fractions"`
	}
	densities := make([]float64, 0, len(r.Fractions))
	for d := range r.Fractions {
		densities = append(densities, d)
	}
	sort.Float64s(densities)
	entries := make([]entry, len(densities))
	for i, d := range densities {
		entries[i] = entry{d, r.Fractions[d]}
	}
	return json.Marshal(struct {
		Entries []entry `json:"entries"`
		N       int     `json:"n"`
	}{entries, r.N})
}

// Table renders the distribution in the shape of the paper's bar chart.
func (r *Figure1Result) Table() string {
	out := fmt.Sprintf("Figure 1: distribution of nodes to clusters, n=%d\n", r.N)
	maxSize := 0
	var densities []float64
	for d, fr := range r.Fractions {
		densities = append(densities, d)
		if len(fr)-1 > maxSize {
			maxSize = len(fr) - 1
		}
	}
	sortFloats(densities)
	out += "cluster size"
	for _, d := range densities {
		out += fmt.Sprintf(" %14s", fmt.Sprintf("density=%g", d))
	}
	out += "\n"
	for size := 1; size <= maxSize; size++ {
		out += fmt.Sprintf("%-12d", size)
		for _, d := range densities {
			fr := r.Fractions[d]
			v := 0.0
			if size < len(fr) {
				v = fr[size]
			}
			out += fmt.Sprintf(" %14.4f", v)
		}
		out += "\n"
	}
	return out
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// ScaleInvarianceResult compares the keys-per-node curve across network
// sizes.
type ScaleInvarianceResult struct {
	// Curves maps network size to its keys-per-node series.
	Curves map[int]*stats.Series
	// MaxDiff is the largest cross-size difference of per-density means.
	MaxDiff float64
}

// ScaleInvariance reproduces the Section V claim that the protocol
// "behaves the same way in a network with 2000 or 20000 nodes": it runs
// the keys-per-node measurement at several sizes and reports how far the
// curves deviate.
func ScaleInvariance(o Options, sizes []int, densities []float64) (*ScaleInvarianceResult, error) {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{1000, 2000, 4000}
	}
	if len(densities) == 0 {
		densities = []float64{8, 12.5, 20}
	}
	res := &ScaleInvarianceResult{Curves: make(map[int]*stats.Series)}
	for _, n := range sizes {
		opt := o
		opt.N = n
		sweep, err := DensitySweep(opt, densities)
		if err != nil {
			return nil, err
		}
		sweep.KeysPerNode.Name = fmt.Sprintf("n=%d", n)
		res.Curves[n] = sweep.KeysPerNode
	}
	// Pairwise max deviation.
	var prev *stats.Series
	for _, n := range sizes {
		cur := res.Curves[n]
		if prev != nil {
			if diff, _ := stats.MaxAbsDiff(prev, cur); diff > res.MaxDiff {
				res.MaxDiff = diff
			}
		}
		prev = cur
	}
	return res, nil
}

// Table renders the per-size curves side by side.
func (r *ScaleInvarianceResult) Table() string {
	var series []*stats.Series
	var sizes []int
	for n := range r.Curves {
		sizes = append(sizes, n)
	}
	sortInts(sizes)
	for _, n := range sizes {
		series = append(series, r.Curves[n])
	}
	return "Scale invariance: avg cluster keys per node by network size\n" +
		stats.Table("density", series...) +
		fmt.Sprintf("max cross-size deviation: %.4f keys\n", r.MaxDiff)
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// SetupTimeResult quantifies the duration of the vulnerable master-key
// window (Section IV-B's assumption that setup completes before a node
// can be physically compromised).
type SetupTimeResult struct {
	// KeySetupWindow is the configured Km lifetime (boot to erasure).
	KeySetupWindow time.Duration
	// MeanMsgsPerNode is the per-node transmission count within it.
	MeanMsgsPerNode float64
	// Densities echoes the sweep axis.
	Series *stats.Series
}

// SetupTime measures the master-key exposure window and the traffic it
// takes — the evidence behind "the overall time needed to establish the
// keys is a little more than transmission of one message plus the time to
// decrypt the material sent during this phase."
func SetupTime(o Options, densities []float64) (*SetupTimeResult, error) {
	o = o.withDefaults()
	if len(densities) == 0 {
		densities = PaperDensities
	}
	sweep, err := DensitySweep(o, densities)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	var sum float64
	pts := sweep.MsgsPerNode.Sorted()
	for _, p := range pts {
		sum += p.Y
	}
	return &SetupTimeResult{
		KeySetupWindow:  cfg.ClusterPhaseEnd + cfg.LinkSpread + 50*time.Millisecond,
		MeanMsgsPerNode: sum / float64(len(pts)),
		Series:          sweep.MsgsPerNode,
	}, nil
}

// Table renders the setup-window summary.
func (r *SetupTimeResult) Table() string {
	return fmt.Sprintf("Key-setup window (Km lifetime): %v\nMean setup messages per node: %.3f\n%s",
		r.KeySetupWindow, r.MeanMsgsPerNode, stats.Table("density", r.Series))
}
