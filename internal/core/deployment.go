package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// DeployOptions describes a full simulated network to stand up.
type DeployOptions struct {
	// N is the number of pre-deployed nodes (including the base station).
	N int
	// Density is the target mean neighbors per node.
	Density float64
	// Seed drives deployment, protocol randomness, and the key hierarchy.
	Seed uint64
	// Config holds protocol parameters (zero fields take defaults).
	Config Config
	// UsePlanar switches from the default torus geometry, which realizes
	// the target density exactly (see internal/topology), to planar
	// geometry (boundary effects included).
	UsePlanar bool
	// Loss is the radio's per-link packet-loss probability.
	Loss float64
	// Collisions enables the simulator's half-duplex collision model
	// (overlapping receptions corrupt each other) — the pessimistic,
	// CSMA-free MAC. Used by the MAC ablation experiment.
	Collisions bool
	// Jitter overrides the radio's random delivery jitter (zero keeps
	// the simulator default). Under the collision model it doubles as a
	// crude CSMA backoff: spreading transmissions beyond one packet
	// airtime is what prevents broadcast storms.
	Jitter time.Duration
	// Battery, if positive, gives every node a finite energy budget in
	// µJ; depleted nodes die (Section IV-E's motivation).
	Battery float64
	// OnDeath observes battery deaths. Like OnCrash, Trace and OnMove it
	// runs on the goroutine that calls the engine's Run, in canonical
	// order, at every shard count: the engine buffers these callbacks
	// per shard and replays them at epoch barriers (OnMove runs on the
	// coordinator lane). They need no locking against each other or
	// against the caller. The Sensor hooks are different; see
	// Sensor.OnRepaired.
	OnDeath func(i int, at time.Duration)
	// BSIndex is the graph index hosting the base station (default 0).
	BSIndex int
	// ReserveLate reserves this many extra radio positions for nodes
	// deployed later via AddLateNode; they are dark until booted.
	ReserveLate int
	// Trace, if set, observes every radio delivery, on the Run
	// goroutine (see OnDeath).
	Trace func(sim.TraceEvent)
	// Faults, if set, is a deterministic fault-injection plan (crashes,
	// reboots, loss bursts, partitions, jitter scaling) the engine
	// executes during the run. See internal/faults.
	Faults *faults.Plan
	// OnCrash observes plan-scheduled crashes, on the Run goroutine
	// (see OnDeath).
	OnCrash func(i int, at time.Duration)
	// Obs, if non-nil, instruments the whole deployment — engine, medium,
	// fault injector, and every sensor — against the scope's registry.
	// Leaving it nil keeps the run byte-identical to an uninstrumented one.
	Obs *obs.Scope
	// DisablePooling turns off the engine's event and packet-buffer reuse
	// (see sim.Config.DisablePooling). Pooling is inside the
	// byte-equivalence contract, so this changes no output — it is the
	// reference the pool-equivalence tests compare against, and a
	// debugging escape hatch.
	DisablePooling bool
	// PoisonRecycled overwrites recycled packet buffers with 0xDB (see
	// sim.Config.PoisonRecycled) to surface illegal packet retention.
	PoisonRecycled bool
	// Shards is how many goroutines the simulation runs on. 0 picks the
	// count from the deployment's size (N + ReserveLate) and GOMAXPROCS
	// through sim.AutoShards, so a large deployment runs on several
	// cores and a small one inline; 1 forces one inline shard. Above 1,
	// nodes are assigned to spatial stripes via
	// topology.Graph.ShardStripes and the stripes advance in parallel.
	// Output is byte-identical at every value (see sim.Config.Shards and
	// docs/SCALING.md); Eng.ShardCount reports the resolved count.
	Shards int
	// Mobility, if it enables any motion (mobility.Config.Enabled),
	// attaches a seeded mobility controller driving the listed nodes
	// from the engine's coordinator lane (docs/MOBILITY.md). The listed
	// nodes are provisioned via Authority.MobileMaterialFor when
	// Config.HandoffEnabled is set, so they can re-join clusters as they
	// move; the base station must stay put. Shard stripes are frozen
	// from the initial positions. The zero value keeps the run
	// byte-identical to a mobility-free one.
	Mobility mobility.Config
	// OnMove, if set, observes every applied position update, on the
	// Run goroutine (see OnDeath).
	OnMove func(i int, at time.Duration, p geom.Point)
}

// Deployment is a fully wired simulated network running the protocol.
type Deployment struct {
	Eng     *sim.Engine
	Graph   *topology.Graph
	Auth    *Authority
	Cfg     Config
	Sensors []*Sensor // indexed by graph node; nil at unbooted reserves
	BSIndex int
	// Mob is the mobility controller, nil when the deployment is static.
	Mob *mobility.Controller

	reserved int
	lateUsed int
	setupTx  []int // per-node transmissions during key setup only
}

// Deploy generates the topology, provisions every node through a fresh
// Authority, and boots the network at virtual time zero. It does not run
// the clock; call RunSetup (or drive Eng directly).
func Deploy(opt DeployOptions) (*Deployment, error) {
	if opt.N < 2 {
		return nil, fmt.Errorf("core: deployment needs at least 2 nodes, got %d", opt.N)
	}
	// Validate the raw config: withDefaults would silently replace
	// negative durations with defaults, hiding deployment-file typos.
	if err := opt.Config.Validate(); err != nil {
		return nil, err
	}
	cfg := opt.Config.withDefaults()
	if opt.Obs != nil {
		cfg.Obs = opt.Obs
	}
	metric := geom.Torus
	if opt.UsePlanar {
		metric = geom.Planar
	}
	rng := xrand.New(opt.Seed)
	total := opt.N + opt.ReserveLate
	graph, err := topology.Generate(rng.Split(1), topology.Config{
		N: total, Density: opt.Density, Metric: metric,
	})
	if err != nil {
		return nil, err
	}
	if opt.BSIndex < 0 || opt.BSIndex >= opt.N {
		return nil, fmt.Errorf("core: BSIndex %d out of range [0,%d)", opt.BSIndex, opt.N)
	}
	var mobileSet map[int]bool
	if opt.Mobility.Enabled() {
		if err := opt.Mobility.Validate(total); err != nil {
			return nil, err
		}
		mobileSet = make(map[int]bool, len(opt.Mobility.Nodes))
		for _, i := range opt.Mobility.Nodes {
			if i == opt.BSIndex {
				return nil, fmt.Errorf("core: base station (index %d) cannot be mobile", i)
			}
			mobileSet[i] = true
		}
	}
	auth := AuthorityFromSeed(opt.Seed, cfg.ChainLength)
	sensors := make([]*Sensor, total)
	behaviors := make([]node.Behavior, total)
	for i := 0; i < opt.N; i++ {
		m := auth.MaterialFor(node.ID(i))
		if mobileSet[i] && cfg.HandoffEnabled {
			m = auth.MobileMaterialFor(node.ID(i))
		}
		if i == opt.BSIndex {
			sensors[i] = NewBaseStation(cfg, m, auth)
		} else {
			sensors[i] = NewSensor(cfg, m)
		}
		behaviors[i] = sensors[i]
	}
	shards := sim.AutoShards(opt.Shards, total, runtime.GOMAXPROCS(0))
	var shardOf []int
	if shards > 1 {
		shardOf = graph.ShardStripes(shards)
	}
	eng, err := sim.New(sim.Config{
		Graph:      graph,
		Seed:       opt.Seed,
		Shards:     shards,
		ShardOf:    shardOf,
		Loss:       opt.Loss,
		Collisions: opt.Collisions,
		Jitter:     opt.Jitter,
		Battery:    opt.Battery,
		OnDeath:    opt.OnDeath,
		Trace:      opt.Trace,
		Faults:     opt.Faults,
		OnCrash:    opt.OnCrash,
		Obs:        cfg.Obs,

		DisablePooling: opt.DisablePooling,
		PoisonRecycled: opt.PoisonRecycled,
	}, behaviors)
	if err != nil {
		return nil, err
	}
	if opt.Battery > 0 {
		// The base station is mains-powered: its radio spends energy in
		// the meters but never kills it.
		eng.SetImmortal(opt.BSIndex)
	}
	var mob *mobility.Controller
	if opt.Mobility.Enabled() {
		// Built after the engine so shard stripes are already frozen
		// from the initial positions; the controller's ticks run on the
		// engine's coordinator lane, which on the sharded engine means
		// between epochs with every shard parked — the one place the
		// graph may mutate.
		mob, err = mobility.New(opt.Mobility, graph)
		if err != nil {
			return nil, err
		}
		mob.OnMove = opt.OnMove
		mob.Start(eng)
	}
	eng.Boot(0)
	return &Deployment{
		Eng:      eng,
		Graph:    graph,
		Auth:     auth,
		Cfg:      cfg,
		Sensors:  sensors,
		BSIndex:  opt.BSIndex,
		Mob:      mob,
		reserved: opt.ReserveLate,
	}, nil
}

// BS returns the base-station sensor.
func (d *Deployment) BS() *Sensor { return d.Sensors[d.BSIndex] }

// RunSetup advances the clock through the key-setup phases and the first
// beacon flood. On return every booted node is operational (or an error
// explains which is not). Per-node setup transmission counts are
// snapshotted just before the operational transition for Figure 9.
func (d *Deployment) RunSetup() error {
	// Key setup ends at OperationalAt; snapshot transmissions first.
	d.Eng.Run(d.Cfg.OperationalAt - time.Millisecond)
	d.setupTx = make([]int, len(d.Sensors))
	for i := range d.Sensors {
		if d.Sensors[i] != nil {
			d.setupTx[i] = d.Eng.Meter(i).TxCount()
		}
	}
	// Let the operational transition and the beacon flood settle.
	d.Eng.Run(d.Cfg.OperationalAt + time.Second)
	for i, s := range d.Sensors {
		if s == nil {
			continue
		}
		if s.Phase() != PhaseOperational {
			return fmt.Errorf("core: node %d stuck in phase %v after setup", i, s.Phase())
		}
		if _, ok := s.Cluster(); !ok {
			return fmt.Errorf("core: node %d has no cluster after setup", i)
		}
	}
	return nil
}

// SetupTxCounts returns each pre-deployed node's number of transmissions
// during the key-setup phases (HELLO plus LINK-ADVERT traffic) — the
// quantity of Figure 9. Valid after RunSetup.
func (d *Deployment) SetupTxCounts() []int { return d.setupTx }

// SendReading schedules node i to originate a reading at virtual time at.
func (d *Deployment) SendReading(i int, at time.Duration, data []byte) {
	s := d.Sensors[i]
	d.Eng.Do(at, i, func(ctx node.Context) {
		s.SendReading(ctx, data)
	})
}

// Deliveries returns the readings accepted by the base station so far.
func (d *Deployment) Deliveries() []Delivery { return d.BS().Deliveries() }

// Handoffs sums the completed cluster handoffs across all booted nodes.
func (d *Deployment) Handoffs() int {
	total := 0
	for _, s := range d.Sensors {
		if s != nil {
			total += s.Handoffs()
		}
	}
	return total
}

// AddLateNode boots the next reserved radio position as a late-deployed
// node at virtual time at, provisioned with KMC per Section IV-E. It
// returns the graph index of the new node.
func (d *Deployment) AddLateNode(at time.Duration) (int, error) {
	if d.lateUsed >= d.reserved {
		return 0, fmt.Errorf("core: no reserved positions left (reserved %d)", d.reserved)
	}
	idx := len(d.Sensors) - d.reserved + d.lateUsed
	d.lateUsed++
	s := NewSensor(d.Cfg, d.Auth.LateMaterialFor(node.ID(idx)))
	d.Sensors[idx] = s
	d.Eng.BootNode(idx, s, at)
	return idx, nil
}

// EnergyReport aggregates the whole network's energy meters.
type EnergyReport struct {
	// TxMicroJ, RxMicroJ, CryptoMicroJ are network-wide totals in µJ.
	TxMicroJ, RxMicroJ, CryptoMicroJ float64
	// TxCount, RxCount are network-wide packet counts.
	TxCount, RxCount int
	// MeanPerNodeMicroJ is the mean per-node total in µJ.
	MeanPerNodeMicroJ float64
}

// TotalMicroJ returns the network-wide total energy in µJ.
func (r EnergyReport) TotalMicroJ() float64 {
	return r.TxMicroJ + r.RxMicroJ + r.CryptoMicroJ
}

// Energy aggregates every node's meter into one report.
func (d *Deployment) Energy() EnergyReport {
	var r EnergyReport
	n := 0
	for i := 0; i < d.Eng.N(); i++ {
		m := d.Eng.Meter(i)
		r.TxMicroJ += m.Tx()
		r.RxMicroJ += m.Rx()
		r.CryptoMicroJ += m.Crypto()
		r.TxCount += m.TxCount()
		r.RxCount += m.RxCount()
		n++
	}
	if n > 0 {
		r.MeanPerNodeMicroJ = r.TotalMicroJ() / float64(n)
	}
	return r
}

// ClusterStats summarizes the cluster structure after setup.
type ClusterStats struct {
	// NumClusters is the number of distinct clusters formed.
	NumClusters int
	// Sizes maps cluster ID to member count.
	Sizes map[uint32]int
	// Heads is the number of nodes that elected themselves clusterhead —
	// by construction equal to NumClusters for the original deployment.
	Heads int
	// MeanSize is the average nodes per cluster (Figure 7).
	MeanSize float64
	// HeadFraction is heads divided by network size (Figure 8).
	HeadFraction float64
}

// Clusters computes cluster statistics over the booted, clustered nodes.
func (d *Deployment) Clusters() ClusterStats {
	st := ClusterStats{Sizes: make(map[uint32]int)}
	total := 0
	for _, s := range d.Sensors {
		if s == nil {
			continue
		}
		cid, ok := s.Cluster()
		if !ok {
			continue
		}
		st.Sizes[cid]++
		total++
		if s.IsHead() {
			st.Heads++
		}
	}
	st.NumClusters = len(st.Sizes)
	if st.NumClusters > 0 {
		st.MeanSize = float64(total) / float64(st.NumClusters)
	}
	if total > 0 {
		st.HeadFraction = float64(st.Heads) / float64(total)
	}
	return st
}

// KeysPerNode returns each clustered node's stored cluster-key count
// (Figure 6's quantity), excluding the base station if excludeBS is set
// (the base station holds the global registry anyway).
func (d *Deployment) KeysPerNode(excludeBS bool) []int {
	var out []int
	for i, s := range d.Sensors {
		if s == nil {
			continue
		}
		if excludeBS && i == d.BSIndex {
			continue
		}
		if _, ok := s.Cluster(); !ok {
			continue
		}
		out = append(out, s.ClusterKeyCount())
	}
	return out
}

// VisitClustered streams every booted, clustered node in graph-index
// order to f without materializing any per-node slice: the accumulation
// path the large-scale experiments use, where KeysPerNode's O(nodes)
// result slice would dominate memory. f receives the node's graph
// index, cluster ID, stored cluster-key count, and whether it is its
// cluster's head.
func (d *Deployment) VisitClustered(f func(i int, cid uint32, keyCount int, isHead bool)) {
	for i, s := range d.Sensors {
		if s == nil {
			continue
		}
		cid, ok := s.Cluster()
		if !ok {
			continue
		}
		f(i, cid, s.ClusterKeyCount(), s.IsHead())
	}
}

// VerifyClusterInvariants checks the structural properties the protocol
// guarantees (used by tests and the harness's self-checks):
//
//   - partition: every operational node belongs to exactly one cluster;
//   - head adjacency: every member is a direct radio neighbor of its
//     cluster's head (so cluster diameter <= 2 hops, as the paper's
//     Figure 2 discussion states);
//   - key consistency: all members of a cluster hold the same key;
//   - neighbor-key soundness: every stored neighbor key matches the real
//     key of that cluster, and the storing node really borders it.
func (d *Deployment) VerifyClusterInvariants() error {
	clusterKey := make(map[uint32][16]byte)
	for i, s := range d.Sensors {
		if s == nil {
			continue
		}
		cid, ok := s.Cluster()
		if !ok {
			if s.Phase() == PhaseOperational {
				return fmt.Errorf("node %d operational but clusterless", i)
			}
			continue
		}
		key, _ := s.KeyStore().KeyFor(cid)
		if prev, seen := clusterKey[cid]; seen {
			if prev != [16]byte(key) {
				return fmt.Errorf("cluster %d has inconsistent keys", cid)
			}
		} else {
			clusterKey[cid] = key
		}
		// Head adjacency: the head's graph index equals the CID for
		// original nodes.
		head := int(cid)
		if i != head && head < d.Graph.N() {
			if !d.Graph.Adjacent(i, head) {
				return fmt.Errorf("node %d is in cluster %d but not adjacent to its head", i, cid)
			}
		}
	}
	// Neighbor-key soundness.
	for i, s := range d.Sensors {
		if s == nil {
			continue
		}
		for _, nc := range s.NeighborClusters() {
			want, seen := clusterKey[nc]
			if !seen {
				return fmt.Errorf("node %d stores key for nonexistent cluster %d", i, nc)
			}
			got, _ := s.KeyStore().KeyFor(nc)
			if want != [16]byte(got) {
				return fmt.Errorf("node %d stores wrong key for cluster %d", i, nc)
			}
			if !d.bordersCluster(i, nc) {
				return fmt.Errorf("node %d stores key for non-adjacent cluster %d", i, nc)
			}
		}
	}
	return nil
}

// bordersCluster reports whether graph node i has at least one radio
// neighbor belonging to cluster cid.
func (d *Deployment) bordersCluster(i int, cid uint32) bool {
	for _, nb := range d.Graph.Neighbors(i) {
		s := d.Sensors[nb]
		if s == nil {
			continue
		}
		if c, ok := s.Cluster(); ok && c == cid {
			return true
		}
	}
	return false
}
