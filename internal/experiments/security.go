package experiments

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/baseline/blom"
	"repro/internal/baseline/globalkey"
	"repro/internal/baseline/leap"
	"repro/internal/baseline/pairwise"
	"repro/internal/baseline/randomkp"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// ResilienceResult holds the node-capture comparison of Sections II/III:
// fraction of links between UNCAPTURED nodes the adversary can read, as a
// function of how many random nodes it captured, for all four schemes —
// plus the locality probe (compromise beyond a 4-hop horizon), which is
// identically zero for the localized protocol.
type ResilienceResult struct {
	Full   []*stats.Series // per scheme: fraction vs captures
	Remote []*stats.Series // localized vs random-kp, far links only
	N      int
}

// Resilience runs the capture sweep. captureCounts defaults to
// {1, 5, 10, 25, 50, 100}.
func Resilience(o Options, captureCounts []int) (*ResilienceResult, error) {
	o = o.withDefaults()
	if len(captureCounts) == 0 {
		captureCounts = []int{1, 5, 10, 25, 50, 100}
	}
	res := &ResilienceResult{N: o.N}
	fullNames := []string{"localized", "global-key", "random-kp", "q-composite(q=2)",
		"blom-multispace", "leap", "pairwise-unique"}
	remoteNames := []string{"localized(far)", "random-kp(far)", "blom(far)"}
	full := map[string]*stats.Series{}
	remote := map[string]*stats.Series{}
	for _, name := range fullNames {
		full[name] = stats.NewSeries(name)
	}
	for _, name := range remoteNames {
		remote[name] = stats.NewSeries(name)
	}

	// One trial's compromise fractions at every capture count, in the
	// fullNames/remoteNames column order.
	type captureObs struct {
		x            int
		full, remote []float64
	}
	o, workers := o.pool(o.N, o.Trials)
	trials, err := runner.Map(workers, o.Trials, func(trial int) ([]captureObs, error) {
		d, err := deployTrial(o, 12.5, 0, trial)
		if err != nil {
			return nil, err
		}
		ours := adversary.NewProtocolScheme(d)
		gk := globalkey.New(d.Graph)
		rngKP := xrand.New(xrand.TrialSeed(o.Seed^saltScheme, 0, trial))
		rk, err := randomkp.New(d.Graph, randomkp.Params{PoolSize: 10000, RingSize: 100, Q: 1}, rngKP.Split(1))
		if err != nil {
			return nil, err
		}
		qc, err := randomkp.New(d.Graph, randomkp.Params{PoolSize: 10000, RingSize: 100, Q: 2}, rngKP.Split(2))
		if err != nil {
			return nil, err
		}
		bl, err := blom.New(d.Graph, blom.DefaultParams(), rngKP.Split(4))
		if err != nil {
			return nil, err
		}
		lp := leap.New(d.Graph)
		pw := pairwise.New(d.Graph)

		capRNG := rngKP.Split(3)
		var obs []captureObs
		for _, x := range captureCounts {
			if x >= o.N {
				continue
			}
			captured := capRNG.Sample(o.N, x)
			obs = append(obs, captureObs{
				x: x,
				full: []float64{
					ours.Capture(captured).Fraction(),
					gk.Capture(captured).Fraction(),
					rk.Capture(captured).Fraction(),
					qc.Capture(captured).Fraction(),
					bl.Capture(captured).Fraction(),
					lp.Capture(captured).Fraction(),
					pw.Capture(captured).Fraction(),
				},
				remote: []float64{
					ours.CaptureBeyond(captured, 4).Fraction(),
					rk.CaptureBeyond(captured, 4).Fraction(),
					bl.CaptureBeyond(captured, 4).Fraction(),
				},
			})
		}
		return obs, nil
	})
	if err != nil {
		return nil, err
	}
	for _, obs := range trials {
		for _, ob := range obs {
			for i, name := range fullNames {
				full[name].Observe(float64(ob.x), ob.full[i])
			}
			for i, name := range remoteNames {
				remote[name].Observe(float64(ob.x), ob.remote[i])
			}
		}
	}
	res.Full = []*stats.Series{full["localized"], full["global-key"], full["random-kp"],
		full["q-composite(q=2)"], full["blom-multispace"], full["leap"], full["pairwise-unique"]}
	res.Remote = []*stats.Series{remote["localized(far)"], remote["random-kp(far)"], remote["blom(far)"]}
	return res, nil
}

// Table renders both resilience tables.
func (r *ResilienceResult) Table() string {
	return fmt.Sprintf("Resilience to node capture, n=%d, density 12.5\n", r.N) +
		"Fraction of links between uncaptured nodes readable by the adversary:\n" +
		stats.Table("captured", r.Full...) +
		"\nLocality probe — compromised links >= 4 hops from every capture:\n" +
		stats.Table("captured", r.Remote...)
}

// BroadcastCostResult compares the cost of one encrypted local broadcast.
type BroadcastCostResult struct {
	Series []*stats.Series
	N      int
}

// BroadcastCost measures, per density, the mean number of transmissions
// one node needs to broadcast a message readable by all (securable)
// neighbors — the paper's energy argument: the localized protocol and
// other cluster-key schemes need exactly one, while random
// predistribution pays roughly one transmission per neighbor.
func BroadcastCost(o Options, densities []float64) (*BroadcastCostResult, error) {
	o = o.withDefaults()
	if len(densities) == 0 {
		densities = PaperDensities
	}
	ours := stats.NewSeries("localized")
	gk := stats.NewSeries("global-key")
	rk := stats.NewSeries("random-kp")
	lp := stats.NewSeries("leap")
	type bcObs struct {
		ours, gk, rk, lp float64
	}
	o, workers := o.pool(o.N, len(densities)*o.Trials)
	obs, err := runner.Grid(workers, len(densities), o.Trials,
		func(point, trial int) (bcObs, error) {
			d, err := deployTrial(o, densities[point], point, trial)
			if err != nil {
				return bcObs{}, err
			}
			scheme := adversary.NewProtocolScheme(d)
			rkp, err := randomkp.New(d.Graph, randomkp.Params{PoolSize: 10000, RingSize: 100, Q: 1},
				xrand.New(xrand.TrialSeed(o.Seed^saltScheme, point, trial)))
			if err != nil {
				return bcObs{}, err
			}
			gks := globalkey.New(d.Graph)
			lps := leap.New(d.Graph)
			var sOurs, sGK, sRK, sLP float64
			n := d.Graph.N()
			for u := 0; u < n; u++ {
				sOurs += float64(scheme.BroadcastTransmissions(u))
				sGK += float64(gks.BroadcastTransmissions(u))
				sRK += float64(rkp.BroadcastTransmissions(u))
				sLP += float64(lps.BroadcastTransmissions(u))
			}
			return bcObs{sOurs / float64(n), sGK / float64(n), sRK / float64(n), sLP / float64(n)}, nil
		})
	if err != nil {
		return nil, err
	}
	for point, density := range densities {
		for _, ob := range obs[point] {
			ours.Observe(density, ob.ours)
			gk.Observe(density, ob.gk)
			rk.Observe(density, ob.rk)
			lp.Observe(density, ob.lp)
		}
	}
	return &BroadcastCostResult{Series: []*stats.Series{ours, gk, rk, lp}, N: o.N}, nil
}

// Table renders the broadcast-cost comparison.
func (r *BroadcastCostResult) Table() string {
	return fmt.Sprintf("Transmissions per encrypted local broadcast, n=%d\n", r.N) +
		stats.Table("density", r.Series...)
}

// HelloFloodResult is the Section III LEAP attack measurement.
type HelloFloodResult struct {
	// VictimKeys maps the number of forged HELLOs to the LEAP victim's
	// stored-key count.
	VictimKeys *stats.Series
	// BaselineKeys is the honest LEAP key count at the same node.
	BaselineKeys int
	// LocalizedKeys is the same node's key count under the paper's
	// protocol, which ignores post-setup HELLOs entirely (Km is erased).
	LocalizedKeys int
}

// HelloFlood reproduces the paper's LEAP attack: flood a victim with
// forged HELLOs during neighbor discovery and count the keys it is forced
// to store; the localized protocol's count is flat because HELLOs outside
// the (short) master-key window are undecryptable noise.
func HelloFlood(o Options, fakeCounts []int) (*HelloFloodResult, error) {
	o = o.withDefaults()
	if len(fakeCounts) == 0 {
		fakeCounts = []int{0, 10, 100, 1000, 10000}
	}
	d, err := deployTrial(o, 12.5, 0, 0)
	if err != nil {
		return nil, err
	}
	victim := o.N / 2
	res := &HelloFloodResult{VictimKeys: stats.NewSeries("leap victim keys")}
	lp := leap.New(d.Graph)
	res.BaselineKeys = lp.KeysPerNode(victim)
	for _, f := range fakeCounts {
		lp := leap.New(d.Graph)
		res.VictimKeys.Observe(float64(f), float64(lp.HelloFlood(victim, f)))
	}
	res.LocalizedKeys = d.Sensors[victim].ClusterKeyCount()
	return res, nil
}

// Table renders the flood comparison.
func (r *HelloFloodResult) Table() string {
	return "LEAP HELLO-flood attack (Section III): victim's stored keys\n" +
		stats.Table("forged HELLOs", r.VictimKeys) +
		fmt.Sprintf("honest LEAP baseline: %d keys; localized protocol (flood-immune): %d keys\n",
			r.BaselineKeys, r.LocalizedKeys)
}

// SelectiveForwardingResult measures delivery under dropper compromise.
type SelectiveForwardingResult struct {
	// DeliveryRatio maps the fraction of compromised (dropping) nodes to
	// the end-to-end delivery ratio.
	DeliveryRatio *stats.Series
	N             int
}

// SelectiveForwarding quantifies Section VI's claim that selective
// forwarding has insignificant consequences "since nearby nodes can have
// access to the same information through their cluster keys": with a
// fraction of nodes silently dropping relayed traffic, what share of
// readings still reaches the base station?
func SelectiveForwarding(o Options, dropFractions []float64) (*SelectiveForwardingResult, error) {
	o = o.withDefaults()
	if len(dropFractions) == 0 {
		dropFractions = []float64{0, 0.05, 0.1, 0.2, 0.3}
	}
	res := &SelectiveForwardingResult{
		DeliveryRatio: stats.NewSeries("delivery ratio"),
		N:             o.N,
	}
	o, workers := o.pool(o.N, len(dropFractions)*o.Trials)
	obs, err := runner.Grid(workers, len(dropFractions), o.Trials,
		func(point, trial int) (float64, error) {
			frac := dropFractions[point]
			d, err := deployTrial(o, 12.5, point, trial)
			if err != nil {
				return 0, err
			}
			rng := xrand.New(xrand.TrialSeed(o.Seed^saltDrop, point, trial))
			k := int(frac * float64(o.N))
			adversary.CompromiseNodes(d, rng.Sample(o.N, k))
			// Sample sources among honest nodes and count deliveries.
			sent := 0
			base := d.Eng.Now()
			for i := 1; i < o.N && sent < 40; i += o.N / 40 {
				if i == d.BSIndex || d.Sensors[i].Malice.DropData {
					continue
				}
				d.SendReading(i, base+time.Duration(10*(sent+1))*time.Millisecond, []byte{byte(i)})
				sent++
			}
			if _, err := d.Eng.RunUntilIdle(20_000_000); err != nil {
				return 0, err
			}
			return float64(len(d.Deliveries())) / float64(sent), nil
		})
	if err != nil {
		return nil, err
	}
	for point, frac := range dropFractions {
		for _, ratio := range obs[point] {
			res.DeliveryRatio.Observe(frac, ratio)
		}
	}
	return res, nil
}

// Table renders the delivery-vs-droppers curve.
func (r *SelectiveForwardingResult) Table() string {
	return fmt.Sprintf("Selective forwarding (Section VI), n=%d, density 12.5\n", r.N) +
		stats.Table("dropper frac", r.DeliveryRatio)
}
