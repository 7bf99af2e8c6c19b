package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// This file holds the ablation studies for the design choices DESIGN.md
// calls out: the election's exponential delay (the paper's only free
// parameter), the gradient forwarding rule this implementation adds as
// its routing substrate, the freshness window, and the radio's collision
// model.

// ElectionDelayResult sweeps the HELLO delay mean and reports the
// clustering structure it induces.
type ElectionDelayResult struct {
	SingletonFrac *stats.Series // fraction of clusters of size 1
	HeadFrac      *stats.Series // clusterheads / n
	MeanSize      *stats.Series // nodes per cluster
	Density       float64
}

// ElectionDelay quantifies the calibration table in EXPERIMENTS.md: the
// mean of the exponential HELLO delay (in units of the hop latency,
// ~1ms) trades cluster granularity against election collisions.
func ElectionDelay(o Options, meansMS []int, density float64) (*ElectionDelayResult, error) {
	o = o.withDefaults()
	if len(meansMS) == 0 {
		meansMS = []int{3, 5, 10, 30, 50, 100}
	}
	if density == 0 {
		density = 8
	}
	res := &ElectionDelayResult{
		SingletonFrac: stats.NewSeries("singleton-frac"),
		HeadFrac:      stats.NewSeries("heads/n"),
		MeanSize:      stats.NewSeries("nodes/cluster"),
		Density:       density,
	}
	type electionObs struct {
		singles, heads, size float64
	}
	o, workers := o.pool(o.N, len(meansMS)*o.Trials)
	obs, err := runner.Grid(workers, len(meansMS), o.Trials,
		func(point, trial int) (electionObs, error) {
			cfg := core.DefaultConfig()
			cfg.HelloMeanDelay = time.Duration(meansMS[point]) * time.Millisecond
			// Keep the phase boundary at ~10x the mean so the cap is inert.
			cfg.ClusterPhaseEnd = 10 * cfg.HelloMeanDelay
			d, err := core.Deploy(core.DeployOptions{
				N: o.N, Density: density, Config: cfg,
				Seed:   xrand.TrialSeed(o.Seed, point, trial),
				Shards: o.shards(o.N),
			})
			if err != nil {
				return electionObs{}, err
			}
			if err := d.RunSetup(); err != nil {
				return electionObs{}, err
			}
			st := d.Clusters()
			singles := 0
			for _, sz := range st.Sizes {
				if sz == 1 {
					singles++
				}
			}
			return electionObs{
				singles: float64(singles) / float64(st.NumClusters),
				heads:   st.HeadFraction,
				size:    st.MeanSize,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for point, mean := range meansMS {
		x := float64(mean)
		for _, ob := range obs[point] {
			res.SingletonFrac.Observe(x, ob.singles)
			res.HeadFrac.Observe(x, ob.heads)
			res.MeanSize.Observe(x, ob.size)
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *ElectionDelayResult) Table() string {
	return fmt.Sprintf("Election-delay ablation (density %.1f); x = mean HELLO delay in ms\n", r.Density) +
		stats.Table("mean (ms)", r.SingletonFrac, r.HeadFrac, r.MeanSize)
}

// RoutingAblationResult compares gradient forwarding against naive
// flooding.
type RoutingAblationResult struct {
	// DeliveryGradient / DeliveryFlood: delivered fraction of readings.
	DeliveryGradient, DeliveryFlood float64
	// TxPerReadingGradient / TxPerReadingFlood: DATA transmissions per
	// delivered reading (the energy cost of the routing policy).
	TxPerReadingGradient, TxPerReadingFlood float64
	N                                       int
}

// RoutingAblation quantifies what the hop-gradient rule buys: flooding
// delivers everything at a cost proportional to the network size per
// reading; the gradient confines forwarding to the decreasing-hop cone.
func RoutingAblation(o Options) (*RoutingAblationResult, error) {
	o = o.withDefaults()
	res := &RoutingAblationResult{N: o.N}
	// Both arms share o.Seed on purpose: the comparison holds the topology
	// fixed and varies only the forwarding rule.
	policies := []bool{false, true}
	type routingObs struct {
		ratio, perReading float64
	}
	o, workers := o.pool(o.N, len(policies))
	obs, err := runner.Map(workers, len(policies), func(pi int) (routingObs, error) {
		cfg := core.DefaultConfig()
		cfg.FloodForwarding = policies[pi]
		rec := trace.New()
		d, err := core.Deploy(core.DeployOptions{
			N: o.N, Density: 12.5, Seed: o.Seed, Config: cfg, Trace: rec.Hook(),
			Shards: o.shards(o.N),
		})
		if err != nil {
			return routingObs{}, err
		}
		if err := d.RunSetup(); err != nil {
			return routingObs{}, err
		}
		dataTxBefore := rec.Total()[wire.TData].Transmissions
		sent := 0
		base := d.Eng.Now()
		for i := 1; i < o.N && sent < 30; i += o.N / 30 {
			if i == d.BSIndex {
				continue
			}
			d.SendReading(i, base+time.Duration(sent+1)*20*time.Millisecond, []byte{byte(i)})
			sent++
		}
		if _, err := d.Eng.RunUntilIdle(0); err != nil {
			return routingObs{}, err
		}
		delivered := len(d.Deliveries())
		dataTx := rec.Total()[wire.TData].Transmissions - dataTxBefore
		ob := routingObs{ratio: float64(delivered) / float64(sent)}
		if delivered > 0 {
			ob.perReading = float64(dataTx) / float64(delivered)
		}
		return ob, nil
	})
	if err != nil {
		return nil, err
	}
	res.DeliveryGradient, res.TxPerReadingGradient = obs[0].ratio, obs[0].perReading
	res.DeliveryFlood, res.TxPerReadingFlood = obs[1].ratio, obs[1].perReading
	return res, nil
}

// Table renders the comparison.
func (r *RoutingAblationResult) Table() string {
	return fmt.Sprintf(
		"Routing ablation, n=%d, density 12.5\n"+
			"%-12s %10s %18s\n%-12s %10.3f %18.1f\n%-12s %10.3f %18.1f\n",
		r.N,
		"policy", "delivery", "data-tx/reading",
		"gradient", r.DeliveryGradient, r.TxPerReadingGradient,
		"flooding", r.DeliveryFlood, r.TxPerReadingFlood)
}

// FreshWindowResult sweeps the hop-by-hop freshness window.
type FreshWindowResult struct {
	Delivery *stats.Series // delivery ratio vs window (ms)
	N        int
}

// FreshWindow shows the liveness cost of over-tightening the replay
// window: below the per-hop delivery latency legitimate traffic starts
// failing the |now - τ| check; above it delivery is stable (the window's
// only remaining role is bounding replay).
func FreshWindow(o Options, windowsMS []int) (*FreshWindowResult, error) {
	o = o.withDefaults()
	if len(windowsMS) == 0 {
		windowsMS = []int{1, 2, 5, 50, 250}
	}
	res := &FreshWindowResult{Delivery: stats.NewSeries("delivery"), N: o.N}
	o, workers := o.pool(o.N, len(windowsMS)*o.Trials)
	obs, err := runner.Grid(workers, len(windowsMS), o.Trials,
		func(point, trial int) (float64, error) {
			cfg := core.DefaultConfig()
			cfg.FreshWindow = time.Duration(windowsMS[point]) * time.Millisecond
			d, err := core.Deploy(core.DeployOptions{
				N: o.N, Density: 12.5, Config: cfg,
				Seed:   xrand.TrialSeed(o.Seed, point, trial),
				Shards: o.shards(o.N),
			})
			if err != nil {
				return 0, err
			}
			if err := d.RunSetup(); err != nil {
				return 0, err
			}
			sent := 0
			base := d.Eng.Now()
			for i := 1; i < o.N && sent < 25; i += o.N / 25 {
				if i == d.BSIndex {
					continue
				}
				d.SendReading(i, base+time.Duration(sent+1)*20*time.Millisecond, []byte{1})
				sent++
			}
			if _, err := d.Eng.RunUntilIdle(0); err != nil {
				return 0, err
			}
			return float64(len(d.Deliveries())) / float64(sent), nil
		})
	if err != nil {
		return nil, err
	}
	for point, w := range windowsMS {
		for _, ratio := range obs[point] {
			res.Delivery.Observe(float64(w), ratio)
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *FreshWindowResult) Table() string {
	return fmt.Sprintf("Freshness-window ablation, n=%d\n", r.N) +
		stats.Table("window (ms)", r.Delivery)
}

// MACRow is one medium configuration's outcome in the MAC ablation.
type MACRow struct {
	Name              string
	KeysPerNode       float64
	Delivery          float64
	CollisionsPerNode float64
}

// MACAblationResult compares the collision-free medium against the
// half-duplex collision model, with and without a CSMA-like backoff.
type MACAblationResult struct {
	Rows []MACRow
	N    int
}

// Row returns the named row (zero value if absent).
func (r *MACAblationResult) Row(name string) MACRow {
	for _, row := range r.Rows {
		if row.Name == name {
			return row
		}
	}
	return MACRow{}
}

// MACAblation stresses the setup phase's robustness assumption: the
// paper's SensorSimII runs do not model MAC collisions, and neither does
// our default medium. This experiment turns on the pessimistic no-CSMA
// collision model and measures what survives. The protocol has no
// retransmissions; the observed effect is that collision-destroyed HELLOs
// make more nodes self-elect, *fragmenting* the clustering (more, smaller
// clusters — hence more stored keys per node), while the cluster-broadcast
// redundancy keeps most readings flowing.
func MACAblation(o Options) (*MACAblationResult, error) {
	o = o.withDefaults()
	res := &MACAblationResult{N: o.N}
	configs := []struct {
		name       string
		collisions bool
		jitter     time.Duration
	}{
		{"collision-free", false, 0},
		{"no-backoff", true, 0},                       // 0.2ms default jitter << airtime: broadcast storms
		{"csma-backoff", true, 20 * time.Millisecond}, // spread beyond airtime: collisions rare
	}
	// All three media share o.Seed on purpose: the comparison holds the
	// topology fixed and varies only the collision model.
	o, workers := o.pool(o.N, len(configs))
	rows, err := runner.Map(workers, len(configs), func(ci int) (MACRow, error) {
		c := configs[ci]
		d, err := core.Deploy(core.DeployOptions{
			N: o.N, Density: 12.5, Seed: o.Seed,
			Collisions: c.collisions, Jitter: c.jitter,
			Shards: o.shards(o.N),
		})
		if err != nil {
			return MACRow{}, err
		}
		if err := d.RunSetup(); err != nil {
			return MACRow{}, err
		}
		keys := d.KeysPerNode(true)
		sum := 0
		for _, k := range keys {
			sum += k
		}
		row := MACRow{Name: c.name, KeysPerNode: float64(sum) / float64(len(keys))}

		sent := 0
		base := d.Eng.Now()
		for i := 1; i < o.N && sent < 25; i += o.N / 25 {
			if i == d.BSIndex {
				continue
			}
			d.SendReading(i, base+time.Duration(sent+1)*50*time.Millisecond, []byte{1})
			sent++
		}
		if _, err := d.Eng.RunUntilIdle(0); err != nil {
			return MACRow{}, err
		}
		row.Delivery = float64(len(d.Deliveries())) / float64(sent)
		total := 0
		for i := 0; i < d.Eng.N(); i++ {
			total += d.Eng.Collisions(i)
		}
		row.CollisionsPerNode = float64(total) / float64(d.Eng.N())
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Table renders the comparison.
func (r *MACAblationResult) Table() string {
	out := fmt.Sprintf("MAC ablation, n=%d, density 12.5\n%-16s %12s %12s %16s\n",
		r.N, "medium", "keys/node", "delivery", "collisions/node")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-16s %12.3f %12.3f %16.1f\n",
			row.Name, row.KeysPerNode, row.Delivery, row.CollisionsPerNode)
	}
	return out
}
