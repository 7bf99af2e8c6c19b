package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mobility"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// This file holds the mobility experiment family: delivery, key hygiene,
// and handoff behavior while nodes physically move through the region.
// Each trial pairs the running protocol against an analytic LEAP arm on
// the same trajectories: LEAP's pairwise keys are fixed at bootstrap, so
// once a node drifts out of range of its bootstrap neighbors its links
// are unsecured and its readings cannot be relayed. Our protocol instead
// hands the mover off to a new cluster through the late-addition path
// (docs/MOBILITY.md), so its delivery should degrade strictly less as
// speed and churn grow.

// saltMobility separates mobile-set selection and trajectory seeding from
// the deployment stream (see the salt block in experiments.go).
const saltMobility = 0x5c4e3e08

// mobilityConfig enables the self-healing and handoff machinery at the
// cadence the mobility family measures. Periodic beacons keep the
// routing gradient fresh as the topology shifts underneath it.
func mobilityConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.KeepAlivePeriod = 100 * time.Millisecond
	cfg.DataRetries = 2
	cfg.BeaconPeriod = time.Second
	cfg.HandoffEnabled = true
	// RekeyOnRepair stays off: a random rotation deliberately revokes
	// every key derivable from setup material, which includes the
	// F(KMC, CID) derivation movers use to join — a rekeyed cluster is
	// intentionally closed to the addition path, and under sustained
	// churn that starves re-joins network-wide (docs/MOBILITY.md
	// discusses the tradeoff). Hash-forward refreshes remain joinable
	// and compose fine with handoff.
	return cfg
}

// The shared trial timeline: motion runs over a fixed window after key
// setup, the network settles for the miss budget plus join slack, then
// surviving senders originate readings.
const (
	mobilityMotionFrom  = 2 * time.Second
	mobilityMotionUntil = 6 * time.Second
	// Joins back off up to 8x the 500ms join window, so the last handoff
	// triggered near the end of motion can take a few seconds to land;
	// the settle slack covers the miss budget plus that join tail.
	mobilitySettle = mobilityMotionUntil + 3*time.Second
)

// MobilityResult holds one mobility sweep. The x axis is either node
// speed in connectivity radii per second (speed sweep) or the mobile
// fraction of the network (churn sweep).
type MobilityResult struct {
	// Delivery is the post-motion delivery ratio under our protocol.
	Delivery *stats.Series
	// DeliveryLEAP is the paired analytic LEAP arm on the same
	// trajectories: a sender delivers iff the base station is reachable
	// over links that are both currently in range and secured by a
	// bootstrap-time pairwise key.
	DeliveryLEAP *stats.Series
	// HandoffsPerMobile is completed cluster handoffs per mobile node.
	HandoffsPerMobile *stats.Series
	// HandoffLatencyMS is the mean leave-to-rejoin latency in
	// milliseconds across completed handoffs.
	HandoffLatencyMS *stats.Series
	// KeysPerNode is the mean cluster-key count per surviving non-BS
	// node after motion: handoffs must not accrete stale keys.
	KeysPerNode *stats.Series
	N           int
	Axis        string
}

type mobilityObs struct {
	delivery     float64
	deliveryLEAP float64
	handoffs     int
	mobiles      int
	latencySumMS float64
	latencyCount int
	keysPerNode  float64
}

// runMobilityTrial stands up one network, moves a seeded subset of nodes
// at the given speed over the motion window, and measures both arms.
// Speed is in connectivity radii per second; the mobile set is the first
// nMobile entries of a seeded shuffle so the churn axis nests (a 25%
// trial's movers are a subset of the 50% trial's at the same seed).
func runMobilityTrial(o Options, scope string, point, trial int, radiiPerSec, frac float64) (mobilityObs, error) {
	pick := xrand.New(xrand.TrialSeed(o.Seed^saltMobility, point, trial))
	candidates := make([]int, 0, o.N-1)
	for i := 1; i < o.N; i++ {
		candidates = append(candidates, i)
	}
	for i := len(candidates) - 1; i > 0; i-- {
		j := int(pick.Uint64n(uint64(i + 1)))
		candidates[i], candidates[j] = candidates[j], candidates[i]
	}
	// Draw the trajectory seed unconditionally so static points consume
	// the same stream prefix as moving ones.
	trajSeed := pick.Uint64()
	nMobile := int(frac * float64(len(candidates)))
	mobile := candidates[:nMobile]
	var mob mobility.Config
	if nMobile > 0 && radiiPerSec > 0 {
		// The generator lays nodes in the unit square; convert the
		// radius-relative speed axis to region units.
		v := radiiPerSec * topology.RadiusForDensity(o.N, 1, 10)
		mob = mobility.Config{
			Kind:     mobility.Waypoint,
			Nodes:    mobile,
			SpeedMin: v,
			SpeedMax: v,
			From:     mobilityMotionFrom,
			Until:    mobilityMotionUntil,
			Seed:     trajSeed,
		}
	}
	d, err := core.Deploy(core.DeployOptions{
		N: o.N, Density: 10, Config: mobilityConfig(),
		Seed:     xrand.TrialSeed(o.Seed, point, trial),
		Obs:      o.scope(scope, point, trial),
		Shards:   o.shards(o.N),
		Mobility: mob,
	})
	if err != nil {
		return mobilityObs{}, err
	}
	// Handoff latency lands in per-node slots: node i's hook only writes
	// slot i, so collection is shard-safe, and the index-order sum below
	// is deterministic.
	latMS := make([]float64, o.N)
	latN := make([]int, o.N)
	for i, s := range d.Sensors {
		if s == nil || i == d.BSIndex {
			continue
		}
		i := i
		s.OnHandoff = func(_, _ uint32, started, completed time.Duration) {
			latMS[i] += float64(completed-started) / float64(time.Millisecond)
			latN[i]++
		}
	}
	if err := d.RunSetup(); err != nil {
		return mobilityObs{}, err
	}
	// LEAP's pairwise keys are fixed now, at bootstrap: snapshot each
	// node's secured neighbor set before any motion.
	secured := make([][]int32, o.N)
	for i := 0; i < o.N; i++ {
		secured[i] = append([]int32(nil), d.Graph.Neighbors(i)...)
	}
	d.Eng.Run(mobilitySettle)
	ob := mobilityObs{mobiles: nMobile}
	nodes := 0
	for i, s := range d.Sensors {
		if s == nil || i == d.BSIndex || !d.Eng.Alive(i) {
			continue
		}
		nodes++
		ob.keysPerNode += float64(s.ClusterKeyCount())
	}
	if nodes > 0 {
		ob.keysPerNode /= float64(nodes)
	}
	ob.handoffs = d.Handoffs()
	for i := range latMS {
		ob.latencySumMS += latMS[i]
		ob.latencyCount += latN[i]
	}
	// Post-motion readings from a node stride, exactly the chaos-family
	// sender pattern.
	before := len(d.Deliveries())
	senders := make([]int, 0, 25)
	stride := o.N / 25
	if stride == 0 {
		stride = 1
	}
	for i := 1; i < o.N && len(senders) < 25; i += stride {
		if i == d.BSIndex || !d.Eng.Alive(i) {
			continue
		}
		d.SendReading(i, mobilitySettle+time.Duration(len(senders)+1)*40*time.Millisecond, []byte{byte(i)})
		senders = append(senders, i)
	}
	d.Eng.Run(mobilitySettle + 4*time.Second)
	if len(senders) > 0 {
		ob.delivery = float64(len(d.Deliveries())-before) / float64(len(senders))
		ob.deliveryLEAP = leapDelivery(d, secured, senders)
	}
	return ob, nil
}

// leapDelivery evaluates the analytic LEAP arm on the post-motion
// geometry: a sender delivers iff the base station is reachable over
// links that are in range now AND were secured at bootstrap.
func leapDelivery(d *core.Deployment, secured [][]int32, senders []int) float64 {
	n := len(secured)
	reach := make([]bool, n)
	reach[d.BSIndex] = true
	queue := []int{d.BSIndex}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v32 := range secured[u] {
			v := int(v32)
			if reach[v] || !d.Eng.Alive(v) || !d.Graph.Adjacent(u, v) {
				continue
			}
			reach[v] = true
			queue = append(queue, v)
		}
	}
	got := 0
	for _, s := range senders {
		if reach[s] {
			got++
		}
	}
	return float64(got) / float64(len(senders))
}

// collectMobility folds per-trial observations into the result series.
func collectMobility(res *MobilityResult, xs []float64, obs [][]mobilityObs) {
	for point, x := range xs {
		for _, ob := range obs[point] {
			res.Delivery.Observe(x, ob.delivery)
			res.DeliveryLEAP.Observe(x, ob.deliveryLEAP)
			if ob.mobiles > 0 {
				res.HandoffsPerMobile.Observe(x, float64(ob.handoffs)/float64(ob.mobiles))
			} else {
				res.HandoffsPerMobile.Observe(x, 0)
			}
			if ob.latencyCount > 0 {
				res.HandoffLatencyMS.Observe(x, ob.latencySumMS/float64(ob.latencyCount))
			}
			res.KeysPerNode.Observe(x, ob.keysPerNode)
		}
	}
}

func newMobilityResult(n int, axis string) *MobilityResult {
	return &MobilityResult{
		Delivery:          stats.NewSeries("delivery"),
		DeliveryLEAP:      stats.NewSeries("delivery-leap"),
		HandoffsPerMobile: stats.NewSeries("handoffs-per-mobile"),
		HandoffLatencyMS:  stats.NewSeries("handoff-ms"),
		KeysPerNode:       stats.NewSeries("keys-per-node"),
		N:                 n,
		Axis:              axis,
	}
}

// MobilitySpeedSweep moves every non-BS node and sweeps node speed in
// connectivity radii per second; speed 0 is the static control.
func MobilitySpeedSweep(o Options, speeds []float64) (*MobilityResult, error) {
	o = o.withDefaults()
	if len(speeds) == 0 {
		speeds = []float64{0, 0.5, 1, 2, 4}
	}
	o, workers := o.pool(o.N, len(speeds)*o.Trials)
	obs, err := runner.Grid(workers, len(speeds), o.Trials,
		func(point, trial int) (mobilityObs, error) {
			return runMobilityTrial(o, "mobility-speed", point, trial, speeds[point], 1)
		})
	if err != nil {
		return nil, err
	}
	res := newMobilityResult(o.N, "speed (radii/s)")
	collectMobility(res, speeds, obs)
	return res, nil
}

// MobilityChurnSweep fixes node speed at one radius per second and
// sweeps the mobile fraction of the network.
func MobilityChurnSweep(o Options, fracs []float64) (*MobilityResult, error) {
	o = o.withDefaults()
	if len(fracs) == 0 {
		fracs = []float64{0, 0.25, 0.5, 1}
	}
	o, workers := o.pool(o.N, len(fracs)*o.Trials)
	obs, err := runner.Grid(workers, len(fracs), o.Trials,
		func(point, trial int) (mobilityObs, error) {
			return runMobilityTrial(o, "mobility-churn", point, trial, 1, fracs[point])
		})
	if err != nil {
		return nil, err
	}
	res := newMobilityResult(o.N, "mobile fraction")
	collectMobility(res, fracs, obs)
	return res, nil
}

// Table renders a mobility sweep.
func (r *MobilityResult) Table() string {
	return fmt.Sprintf("Mobility: n=%d, density 10, waypoint motion %v-%v; x = %s\n",
		r.N, mobilityMotionFrom, mobilityMotionUntil, r.Axis) +
		stats.Table(r.Axis, r.Delivery, r.DeliveryLEAP, r.HandoffsPerMobile,
			r.HandoffLatencyMS, r.KeysPerNode)
}
