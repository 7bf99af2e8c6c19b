// Command wsnsim stands up one simulated sensor network running the
// paper's protocol, drives a traffic workload through it, and prints a
// full report: cluster structure, key storage, setup cost, delivery, and
// energy.
//
// Usage:
//
//	wsnsim [-n 2000] [-density 12.5] [-seed 1] [-loss 0]
//	       [-shards 1] [-readings 100] [-batch 0] [-fusion] [-refresh none]
//	       [-refresh-period 0] [-evict 0] [-authority t/n] [-add 0]
//	       [-battery 0] [-faults plan.txt] [-heal] [-trace] [-map] [-v]
//	       [-mobility 0] [-mobility-speed 1] [-mobility-model waypoint]
//	       [-obs :9090] [-obs-hold 0] [-obs-events out.jsonl]
//	       [-listen addr] [-node 0] [-peers id=addr,...] [-hold 2s]
//
// -faults loads a deterministic fault plan (crashes, reboots, loss
// bursts, partitions, jitter scaling; see docs/FAULTS.md for the line
// format). The plan draws from its own seeded stream, so the same
// -seed and -faults file reproduce the identical run, and removing the
// plan never changes the fault-free behavior. -heal enables the
// protocol's self-healing knobs (clusterhead keep-alives with local
// repair elections, bounded data retransmissions), which default to
// off; a run that ends with unrepaired orphan nodes under -heal exits
// non-zero with a one-line diagnostic.
//
// -mobility moves that many seeded random nodes through the region
// after key setup (random-waypoint or random-walk, -mobility-speed in
// units of the connectivity radius per second) and enables the cluster
// handoff machinery so movers re-join clusters as they go; see
// docs/MOBILITY.md. The flag is strictly additive: -mobility 0 (the
// default) leaves the run byte-identical to a build without the
// feature.
//
// -listen switches to multi-process live mode: this process hosts the
// single protocol node given by -node over a real UDP socket, reaches
// the nodes listed in -peers through the reliable transport layer
// (internal/transport: acks, retransmission, circuit breakers), and
// exits 0 only once its node completed cluster-key setup and erased
// the master key Km. All processes must share -seed; node 0 is the
// base station. See the "Multi-process live run" section of README.md
// and docs/TRANSPORT.md.
//
// -obs serves live observability endpoints (/metrics, /events,
// /debug/vars, /debug/pprof) for the duration of the run; -obs-hold
// keeps them up for a grace period after the report so a scraper can
// collect the final state, and -obs-events streams every protocol
// milestone to a JSONL file. All observability output goes to the
// endpoints, the sink file, and stderr — stdout stays byte-identical
// to an uninstrumented run (see docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mobility"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/viz"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// usageText is the synopsis printed by -h. Keep it in sync with the
// package doc comment above; usage_test.go enforces that every
// registered flag appears here and that the doc comment carries these
// exact lines.
const usageText = `wsnsim [-n 2000] [-density 12.5] [-seed 1] [-loss 0]
       [-shards 1] [-readings 100] [-batch 0] [-fusion] [-refresh none]
       [-refresh-period 0] [-evict 0] [-authority t/n] [-add 0]
       [-battery 0] [-faults plan.txt] [-heal] [-trace] [-map] [-v]
       [-mobility 0] [-mobility-speed 1] [-mobility-model waypoint]
       [-obs :9090] [-obs-hold 0] [-obs-events out.jsonl]
       [-listen addr] [-node 0] [-peers id=addr,...] [-hold 2s]`

// options holds every wsnsim flag; registerFlags binds them to a
// FlagSet so tests can exercise flag registration and usage output
// without touching the process-global flag.CommandLine.
type options struct {
	n         *int
	density   *float64
	seed      *uint64
	loss      *float64
	shards    *int
	readings  *int
	batch     *int
	fusion    *bool
	refresh   *string
	evict     *int
	auth      *string
	add       *int
	verbose   *bool
	traceOn   *bool
	battery   *float64
	refreshP  *time.Duration
	showMap   *bool
	faultsF   *string
	heal      *bool
	mobility  *int
	mobSpeed  *float64
	mobModel  *string
	obsAddr   *string
	obsHold   *time.Duration
	obsEvents *string
	listen    *string
	nodeID    *int
	peers     *string
	hold      *time.Duration
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{
		n:         fs.Int("n", 2000, "number of nodes (including the base station)"),
		density:   fs.Float64("density", 12.5, "target mean neighbors per node"),
		seed:      fs.Uint64("seed", 1, "simulation seed"),
		loss:      fs.Float64("loss", 0, "per-link packet loss probability"),
		shards:    fs.Int("shards", 1, "goroutines per simulation; output is identical at every value (see docs/SCALING.md)"),
		readings:  fs.Int("readings", 100, "readings to originate from random nodes"),
		batch:     fs.Int("batch", 0, "seal up to this many readings per data frame (0/1 = one frame per reading; see docs/THROUGHPUT.md)"),
		fusion:    fs.Bool("fusion", false, "data-fusion mode: disable Step-1 encryption"),
		refresh:   fs.String("refresh", "none", "key refresh after setup: hash, rekey, or none"),
		evict:     fs.Int("evict", 0, "revoke this many random clusters after setup"),
		auth:      fs.String("authority", "", "issue -evict through a t-of-n base-station committee (e.g. 2/3): DKG plus threshold signing on the transport Lab; empty = single base station"),
		add:       fs.Int("add", 0, "deploy this many additional nodes after setup"),
		verbose:   fs.Bool("v", false, "print every delivery"),
		traceOn:   fs.Bool("trace", false, "print per-phase traffic accounting by message type"),
		battery:   fs.Float64("battery", 0, "per-node energy budget in µJ (0 = unlimited); the base station is mains-powered"),
		refreshP:  fs.Duration("refresh-period", 0, "automatic key-refresh period (0 = off)"),
		showMap:   fs.Bool("map", false, "print an ASCII map of the cluster structure after setup"),
		faultsF:   fs.String("faults", "", "fault-plan file (see docs/FAULTS.md); empty = no faults"),
		heal:      fs.Bool("heal", false, "enable self-healing: keep-alive repair elections and data retransmissions"),
		mobility:  fs.Int("mobility", 0, "move this many seeded random nodes after setup, with cluster handoff enabled (see docs/MOBILITY.md); 0 = static"),
		mobSpeed:  fs.Float64("mobility-speed", 1, "mobile node speed in connectivity radii per second"),
		mobModel:  fs.String("mobility-model", "waypoint", "mobility model: waypoint or walk"),
		obsAddr:   fs.String("obs", "", "serve /metrics, /events and /debug/pprof on this address (e.g. :9090); empty = off"),
		obsHold:   fs.Duration("obs-hold", 0, "keep the -obs endpoints up this long after the report"),
		obsEvents: fs.String("obs-events", "", "append protocol milestone events to this JSONL file"),
		listen:    fs.String("listen", "", "live mode: host one node over real UDP, listening on this address (e.g. 127.0.0.1:7101); empty = simulate in-process"),
		nodeID:    fs.Int("node", 0, "live mode: the node id this process hosts (0 = base station)"),
		peers:     fs.String("peers", "", "live mode: comma-separated id=addr list of the other processes"),
		hold:      fs.Duration("hold", 2*time.Second, "live mode: linger this long after setup so peers can finish against our radio"),
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage:\n\n\t%s\n\nFlags:\n", usageText)
		fs.PrintDefaults()
	}
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	if *o.listen != "" {
		runLive(o)
		return
	}

	cfg := core.DefaultConfig()
	cfg.DisableStep1 = *o.fusion
	cfg.BatchSize = *o.batch
	if *o.refreshP > 0 {
		cfg.RefreshPeriod = *o.refreshP
		cfg.RefreshMode = core.RefreshHash
	}
	if *o.heal {
		cfg.KeepAlivePeriod = 100 * time.Millisecond
		cfg.SetupRetries = 2
		cfg.DataRetries = 2
	}
	if *o.mobility > 0 {
		// Handoff needs keep-alives to notice a departed head and
		// periodic beacons to keep routes fresh under motion.
		if cfg.KeepAlivePeriod <= 0 {
			cfg.KeepAlivePeriod = 100 * time.Millisecond
		}
		if cfg.BeaconPeriod <= 0 {
			cfg.BeaconPeriod = time.Second
		}
		if cfg.DataRetries == 0 {
			cfg.DataRetries = 2
		}
		cfg.HandoffEnabled = true
	}

	var plan *faults.Plan
	if *o.faultsF != "" {
		text, err := os.ReadFile(*o.faultsF)
		if err != nil {
			fail(err)
		}
		plan, err = faults.ParsePlan(string(text))
		if err != nil {
			fail(err)
		}
		if err := plan.Validate(*o.n); err != nil {
			fail(err)
		}
	}

	// Observability is strictly additive: the registry, endpoints, and
	// event sink never touch stdout, so the printed report is identical
	// with and without -obs.
	var reg *obs.Registry
	if *o.obsAddr != "" || *o.obsEvents != "" {
		reg = obs.NewRegistry()
	}
	var sink *os.File
	if *o.obsEvents != "" {
		f, err := os.Create(*o.obsEvents)
		if err != nil {
			fail(err)
		}
		sink = f
		defer sink.Close()
		reg.Events().SetSink(f)
	}
	var srv *obs.Server
	if *o.obsAddr != "" {
		var err error
		srv, err = obs.Serve(*o.obsAddr, reg)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "wsnsim: observability on http://%s (/metrics, /events, /debug/pprof)\n", srv.Addr())
	}

	deaths := 0
	crashes := 0
	var rec *trace.Recorder
	var traceHook func(sim.TraceEvent)
	if *o.traceOn {
		var err error
		rec, err = trace.NewPhased([]string{"key-setup", "operational"},
			[]time.Duration{cfg.ClusterPhaseEnd + cfg.LinkSpread + 50*time.Millisecond})
		if err != nil {
			fail(err)
		}
		traceHook = rec.Hook()
	}

	var mobCfg mobility.Config
	if *o.mobility > 0 {
		var err error
		mobCfg, err = buildMobility(o)
		if err != nil {
			fail(err)
		}
	}

	d, err := core.Deploy(core.DeployOptions{
		N:           *o.n,
		Density:     *o.density,
		Seed:        *o.seed,
		Config:      cfg,
		Loss:        *o.loss,
		Shards:      *o.shards,
		ReserveLate: *o.add,
		Battery:     *o.battery,
		OnDeath:     func(int, time.Duration) { deaths++ },
		Trace:       traceHook,
		Faults:      plan,
		OnCrash:     func(int, time.Duration) { crashes++ },
		Obs:         reg.Scope("wsnsim", 0),
		Mobility:    mobCfg,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("deployed %d nodes, density target %.1f (realized %.2f), radius %.4f, %s metric\n",
		*o.n, *o.density, d.Graph.MeanDegree(), d.Graph.Radius(), d.Graph.Metric())

	if err := d.RunSetup(); err != nil {
		fail(err)
	}
	st := d.Clusters()
	fmt.Printf("\n-- key setup --\n")
	fmt.Printf("clusters: %d (mean size %.2f, head fraction %.3f)\n",
		st.NumClusters, st.MeanSize, st.HeadFraction)
	var keySummary stats.Summary
	for _, k := range d.KeysPerNode(true) {
		keySummary.Add(float64(k))
	}
	fmt.Printf("cluster keys per node: %s\n", keySummary.String())
	var txSummary stats.Summary
	for _, c := range d.SetupTxCounts() {
		txSummary.Add(float64(c))
	}
	fmt.Printf("setup messages per node: %s\n", txSummary.String())
	if err := d.VerifyClusterInvariants(); err != nil {
		fail(fmt.Errorf("invariant violation: %w", err))
	}
	fmt.Printf("cluster invariants: OK\n")

	// OnRepaired runs on the claimant's shard goroutine, so the count
	// is shared across shards.
	var repairs atomic.Int64
	if *o.heal {
		for i, s := range d.Sensors {
			if s == nil || i == d.BSIndex {
				continue
			}
			s.OnRepaired = func(uint32, node.ID, time.Duration) { repairs.Add(1) }
		}
	}

	if *o.showMap {
		fmt.Printf("\n-- field map (glyph = cluster, # = base station) --\n")
		fmt.Print(viz.Clusters(d.Graph, func(i int) (uint32, bool) {
			if d.Sensors[i] == nil {
				return 0, false
			}
			return d.Sensors[i].Cluster()
		}, viz.Options{
			Width: 100,
			Mark: func(i int) (rune, bool) {
				if i == d.BSIndex {
					return '#', true
				}
				return 0, false
			},
		}))
	}

	switch *o.refresh {
	case "hash":
		at := d.Eng.Now() + 10*time.Millisecond
		for i, s := range d.Sensors {
			if s == nil {
				continue
			}
			s := s
			d.Eng.Do(at, i, func(ctx node.Context) { s.HashRefresh(ctx) })
		}
		d.Eng.Run(at + 50*time.Millisecond)
		fmt.Printf("\n-- hash refresh applied to all %d nodes --\n", *o.n)
	case "rekey":
		at := d.Eng.Now() + 10*time.Millisecond
		count := 0
		for cid := range st.Sizes {
			head := int(cid)
			if head >= len(d.Sensors) || d.Sensors[head] == nil {
				continue
			}
			s := d.Sensors[head]
			d.Eng.Do(at, head, func(ctx node.Context) { s.StartClusterRefresh(ctx) })
			count++
		}
		d.Eng.Run(at + 500*time.Millisecond)
		fmt.Printf("\n-- re-keying refresh initiated by %d clusterheads --\n", count)
	case "none":
	default:
		fail(fmt.Errorf("unknown -refresh mode %q", *o.refresh))
	}

	if *o.evict > 0 {
		bsCID, _ := d.BS().Cluster()
		var cids []uint32
		for cid := range st.Sizes {
			if cid != bsCID {
				cids = append(cids, cid)
			}
		}
		sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
		if *o.evict < len(cids) {
			cids = cids[:*o.evict]
		}
		if *o.auth != "" {
			// Threshold path: a t-of-n committee authorizes the eviction;
			// the combined command enters the network at the base station
			// and verifies against the same chain commitment.
			at, an, err := parseAuthority(*o.auth)
			if err != nil {
				fail(err)
			}
			sc, err := runAuthorityEviction(*o.seed, at, an, d.Auth, cids)
			if err != nil {
				fail(err)
			}
			pkt, err := (&wire.Frame{Type: wire.TRevoke, Payload: sc.Revoke().Marshal()}).Marshal()
			if err != nil {
				fail(err)
			}
			when := d.Eng.Now() + 10*time.Millisecond
			d.Eng.Schedule(when, func() {
				d.Eng.InjectAt(d.BSIndex, node.ID(d.BSIndex), pkt)
			})
			fmt.Printf("\n-- authority %d/%d: DKG converged, eviction threshold-signed --\n", at, an)
		} else {
			bs := d.BS()
			d.Eng.Do(d.Eng.Now()+10*time.Millisecond, d.BSIndex, func(ctx node.Context) {
				bs.RevokeClusters(ctx, cids)
			})
		}
		d.Eng.Run(d.Eng.Now() + time.Second)
		evicted := 0
		for _, s := range d.Sensors {
			if s != nil && s.Evicted() {
				evicted++
			}
		}
		fmt.Printf("\n-- revoked %d clusters; %d nodes evicted --\n", len(cids), evicted)
	}

	if *o.add > 0 {
		for k := 0; k < *o.add; k++ {
			idx, err := d.AddLateNode(d.Eng.Now() + time.Duration(k+1)*100*time.Millisecond)
			if err != nil {
				fail(err)
			}
			fmt.Printf("late node booted at position %d\n", idx)
		}
		d.Eng.Run(d.Eng.Now() + 5*time.Second)
		for i := len(d.Sensors) - *o.add; i < len(d.Sensors); i++ {
			if s := d.Sensors[i]; s != nil {
				cid, _ := s.Cluster()
				fmt.Printf("late node %d: phase %v, cluster %d, %d keys\n",
					i, s.Phase(), cid, s.ClusterKeyCount())
			}
		}
	}

	if *o.verbose {
		d.BS().SetOnDeliver(func(del core.Delivery) {
			fmt.Printf("  deliver origin=%d seq=%d bytes=%d at=%v encrypted=%v\n",
				del.Origin, del.Seq, len(del.Data), del.At, del.Encrypted)
		})
	}
	rng := xrand.New(*o.seed * 31)
	base := d.Eng.Now()
	sent := 0
	for k := 0; k < *o.readings; k++ {
		src := 1 + rng.Intn(*o.n-1)
		if src == d.BSIndex {
			continue
		}
		if s := d.Sensors[src]; s == nil || s.Evicted() {
			continue
		}
		d.SendReading(src, base+time.Duration(k+1)*5*time.Millisecond, []byte(fmt.Sprintf("r%04d", k)))
		sent++
	}
	if *o.heal || *o.mobility > 0 {
		// Keep-alive timers re-arm forever, so the engine never idles;
		// run a fixed horizon past the workload instead.
		end := base + time.Duration(*o.readings+1)*5*time.Millisecond + 5*time.Second
		if m := mobilityUntil + 3*time.Second; *o.mobility > 0 && end < m {
			// Let the last handoffs triggered near the end of motion
			// finish their join windows before the report.
			end = m
		}
		d.Eng.Run(end)
	} else if _, err := d.Eng.RunUntilIdle(0); err != nil {
		fail(err)
	}
	fmt.Printf("\n-- traffic --\n")
	fmt.Printf("readings sent: %d, delivered to base station: %d (%.1f%%)\n",
		sent, len(d.Deliveries()), 100*float64(len(d.Deliveries()))/float64(max(sent, 1)))

	er := d.Energy()
	fmt.Printf("\n-- energy (whole network) --\n")
	fmt.Printf("tx: %.1f mJ   rx: %.1f mJ   crypto: %.3f mJ   total: %.1f mJ   (mean %.1f µJ/node)\n",
		er.TxMicroJ/1000, er.RxMicroJ/1000, er.CryptoMicroJ/1000,
		er.TotalMicroJ()/1000, er.MeanPerNodeMicroJ)
	fmt.Printf("virtual time elapsed: %v\n", d.Eng.Now())
	if *o.battery > 0 {
		fmt.Printf("battery deaths: %d/%d nodes\n", deaths, *o.n)
	}
	if plan != nil || *o.heal {
		fmt.Printf("\n-- faults --\n")
		fmt.Printf("plan-scheduled crashes: %d, local repair elections: %d\n", crashes, repairs.Load())
	}

	if *o.mobility > 0 {
		fmt.Printf("\n-- mobility --\n")
		fmt.Printf("mobile nodes: %d, model %s, speed %.1f radii/s, motion %v-%v\n",
			*o.mobility, *o.mobModel, *o.mobSpeed, mobilityFrom, mobilityUntil)
		fmt.Printf("completed cluster handoffs: %d, stranded nodes: %d\n",
			d.Handoffs(), countOrphans(d))
	}

	if rec != nil {
		fmt.Printf("\n-- traffic accounting --\n%s", rec.Report())
	}

	if *o.showMap {
		fmt.Printf("\n-- energy heat map (0 coolest .. 9 hottest, x = dead, # = base station) --\n")
		fmt.Print(viz.Heat(d.Graph, func(i int) (float64, bool) {
			if d.Sensors[i] == nil {
				return 0, false
			}
			return d.Eng.Meter(i).Total(), true
		}, viz.Options{
			Width: 100,
			Mark: func(i int) (rune, bool) {
				if i == d.BSIndex {
					return '#', true
				}
				if d.Sensors[i] != nil && !d.Eng.Alive(i) {
					return 'x', true
				}
				return 0, false
			},
		}))
	}

	if reg != nil {
		fmt.Fprintf(os.Stderr, "wsnsim: %d protocol events recorded (%d dropped from the ring)\n",
			reg.Events().Total(), reg.Events().Dropped())
	}
	if srv != nil && *o.obsHold > 0 {
		fmt.Fprintf(os.Stderr, "wsnsim: holding observability endpoints for %v\n", *o.obsHold)
		time.Sleep(*o.obsHold)
	}

	// Under -heal an orphan left at the end of the run means the repair
	// machinery failed to do its one job; make that a hard failure so
	// scripts and CI catch it.
	if *o.heal && *o.mobility == 0 {
		if orphans := countOrphans(d); orphans > 0 {
			fmt.Fprintf(os.Stderr, "wsnsim: %d node(s) ended the run orphaned despite -heal (clusterless or clusterhead dead)\n", orphans)
			os.Exit(1)
		}
	}
}

// countOrphans reports how many live, non-evicted sensors ended the run
// without a working cluster: either they never (re)joined one, or the
// head they believe in is dead and no repair election replaced it. The
// head pointer is Head(), not the cluster id — a repair election keeps
// the cluster's identity (and key) while moving headship to a survivor.
func countOrphans(d *core.Deployment) int {
	orphans := 0
	for i, s := range d.Sensors {
		if s == nil || i == d.BSIndex || s.Evicted() || !d.Eng.Alive(i) {
			continue
		}
		if _, in := s.Cluster(); !in {
			orphans++
			continue
		}
		head := int(s.Head())
		if head != i && (head >= len(d.Sensors) || d.Sensors[head] == nil || !d.Eng.Alive(head)) {
			orphans++
		}
	}
	return orphans
}

// Motion window for -mobility: after key setup settles, through a fixed
// horizon so the report reflects a network that kept moving for a while
// and then came to rest (the same timeline the mobility experiment
// family uses).
const (
	mobilityFrom  = 2 * time.Second
	mobilityUntil = 6 * time.Second
)

// buildMobility translates the -mobility flags into a mobility.Config:
// a seeded random subset of non-BS nodes, speed scaled from connectivity
// radii to region units. Selection draws from its own stream so adding
// motion never perturbs the deployment's randomness.
func buildMobility(o *options) (mobility.Config, error) {
	kind, err := mobility.ParseKind(*o.mobModel)
	if err != nil {
		return mobility.Config{}, err
	}
	if *o.mobility >= *o.n {
		return mobility.Config{}, fmt.Errorf("-mobility %d: at most n-1 = %d nodes can move (the base station stays put)", *o.mobility, *o.n-1)
	}
	if *o.mobSpeed <= 0 {
		return mobility.Config{}, fmt.Errorf("-mobility-speed %v must be positive", *o.mobSpeed)
	}
	mrng := xrand.New(*o.seed ^ 0x6d6f6269) // "mobi"
	candidates := make([]int, 0, *o.n-1)
	for i := 1; i < *o.n; i++ {
		candidates = append(candidates, i)
	}
	for i := len(candidates) - 1; i > 0; i-- {
		j := int(mrng.Uint64n(uint64(i + 1)))
		candidates[i], candidates[j] = candidates[j], candidates[i]
	}
	v := *o.mobSpeed * topology.RadiusForDensity(*o.n, 1, *o.density)
	return mobility.Config{
		Kind:     kind,
		Nodes:    candidates[:*o.mobility],
		SpeedMin: v,
		SpeedMax: v,
		From:     mobilityFrom,
		Until:    mobilityUntil,
		Seed:     mrng.Uint64(),
	}, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wsnsim:", err)
	os.Exit(1)
}
