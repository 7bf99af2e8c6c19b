// Command attack runs the adversary scenarios of the paper's Security
// Analysis (Section VI) against a live simulated deployment and reports
// the outcome of each.
//
// Usage:
//
//	attack [-n 1000] [-density 12.5] [-seed 1] [-workers 0]
//	       [-scenario all]
//
// -workers bounds the concurrency of the capture sweep's per-row
// compromise analysis (0 = one worker per CPU, 1 = serial); the capture
// sets are sampled up front from a dedicated stream, so the report is
// identical at every worker count. The live-traffic scenarios drive a
// single shared deployment and always run serially.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/baseline/globalkey"
	"repro/internal/baseline/leap"
	"repro/internal/baseline/randomkp"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/faults"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/viz"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// usageText is the synopsis printed by -h. Keep it in sync with the
// package doc comment above; usage_test.go enforces that every
// registered flag appears here and that the doc comment carries these
// exact lines.
const usageText = `attack [-n 1000] [-density 12.5] [-seed 1] [-workers 0]
       [-scenario all]`

// options holds every attack flag; registerFlags binds them to a
// FlagSet so tests can exercise flag registration and usage output
// without touching the process-global flag.CommandLine.
type options struct {
	n        *int
	density  *float64
	seed     *uint64
	workers  *int
	scenario *string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{
		n:        fs.Int("n", 1000, "network size"),
		density:  fs.Float64("density", 12.5, "target mean neighbors per node"),
		seed:     fs.Uint64("seed", 1, "simulation seed"),
		workers:  fs.Int("workers", 0, "concurrent capture-sweep rows (0 = one per CPU, 1 = serial)"),
		scenario: fs.String("scenario", "all", "capture, clone, flood, selective, forge, crash, or all"),
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
	n, density, seed, workers, scenario := o.n, o.density, o.seed, o.workers, o.scenario
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "attack: negative -workers %d\n", *workers)
		os.Exit(2)
	}

	d, err := core.Deploy(core.DeployOptions{N: *n, Density: *density, Seed: *seed})
	if err != nil {
		fail(err)
	}
	if err := d.RunSetup(); err != nil {
		fail(err)
	}
	fmt.Printf("deployed %d nodes at density %.1f; %d clusters\n\n",
		*n, *density, d.Clusters().NumClusters)

	all := *scenario == "all"
	if all || *scenario == "capture" {
		captureScenario(d, *seed, *workers)
	}
	if all || *scenario == "clone" {
		cloneScenario(d, *seed)
	}
	if all || *scenario == "flood" {
		floodScenario(d, *seed)
	}
	if all || *scenario == "selective" {
		selectiveScenario(d, *seed)
	}
	if all || *scenario == "forge" {
		forgeScenario(d)
	}
	if all || *scenario == "crash" {
		crashScenario(*n, *density, *seed)
	}
}

// crashScenario models an adversary that physically destroys a tenth of
// the network after setup: with the keep-alive/repair machinery enabled,
// orphaned clusters re-elect locally and authenticated delivery largely
// survives. It runs on a fresh deployment (the self-healing knobs are
// off in the shared one) driven by a deterministic fault plan.
func crashScenario(n int, density float64, seed uint64) {
	fmt.Println("== node destruction / self-healing (fault plan) ==")
	cfg := core.DefaultConfig()
	cfg.KeepAlivePeriod = 100 * time.Millisecond
	cfg.DataRetries = 2
	rng := xrand.New(seed * 13)
	const crashBase = 2 * time.Second
	plan := &faults.Plan{}
	victims := rng.Sample(n-1, n/10)
	for k, v := range victims {
		plan.Events = append(plan.Events, faults.Event{
			Kind: faults.KindCrash,
			At:   crashBase + time.Duration(k)*5*time.Millisecond,
			Node: v + 1, // never the base station at index 0
		})
	}
	d, err := core.Deploy(core.DeployOptions{
		N: n, Density: density, Seed: seed, Config: cfg, Faults: plan,
	})
	if err != nil {
		fail(err)
	}
	if err := d.RunSetup(); err != nil {
		fail(err)
	}
	// OnRepaired runs on the claimant's shard goroutine, so the count
	// is shared across shards.
	var repairs atomic.Int64
	for i, s := range d.Sensors {
		if s == nil || i == d.BSIndex {
			continue
		}
		s.OnRepaired = func(uint32, node.ID, time.Duration) { repairs.Add(1) }
	}
	settled := crashBase + time.Duration(len(victims))*5*time.Millisecond + 2*time.Second
	d.Eng.Run(settled)

	sent := 0
	before := len(d.Deliveries())
	for k := 0; k < 50; k++ {
		src := 1 + rng.Intn(n-1)
		if src == d.BSIndex || !d.Eng.Alive(src) {
			continue
		}
		d.SendReading(src, settled+time.Duration(k+1)*5*time.Millisecond, []byte{byte(k)})
		sent++
	}
	d.Eng.Run(settled + 4*time.Second)
	got := len(d.Deliveries()) - before
	fmt.Printf("%d nodes destroyed at t=%v: %d local repair elections; "+
		"%d/%d survivor readings delivered (%.1f%%)\n\n",
		len(victims), crashBase, repairs.Load(), got, sent, 100*float64(got)/float64(max(sent, 1)))
}

// captureScenario compares link compromise after node capture across all
// four schemes. The per-row compromise analysis is read-only over the
// schemes' precomputed key state, so the rows fan out over the worker
// pool; sampling every capture set up front (serially, from one stream)
// keeps the report independent of the worker count.
func captureScenario(d *core.Deployment, seed uint64, workers int) {
	fmt.Println("== node capture (Sections II, III) ==")
	ours := adversary.NewProtocolScheme(d)
	gk := globalkey.New(d.Graph)
	rk, err := randomkp.New(d.Graph,
		randomkp.Params{PoolSize: 10000, RingSize: 100, Q: 1}, xrand.New(seed*3))
	if err != nil {
		fail(err)
	}
	lp := leap.New(d.Graph)
	rng := xrand.New(seed * 5)
	counts := []int{1, 5, 10, 25, 50}
	sets := make([][]int, len(counts))
	for i, x := range counts {
		sets[i] = rng.Sample(d.Graph.N(), x)
	}
	rows, err := runner.Map(workers, len(counts), func(i int) (string, error) {
		captured := sets[i]
		return fmt.Sprintf("%-10d %12.4f %12.4f %12.4f %12.4f %14.4f", counts[i],
			ours.Capture(captured).Fraction(),
			gk.Capture(captured).Fraction(),
			rk.Capture(captured).Fraction(),
			lp.Capture(captured).Fraction(),
			ours.CaptureBeyond(captured, 4).Fraction()), nil
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-10s %12s %12s %12s %12s %14s\n",
		"captured", "localized", "global-key", "random-kp", "leap", "localized(far)")
	for _, row := range rows {
		fmt.Println(row)
	}
	fmt.Println()
}

// cloneScenario shows replication is geographically confined, with an
// ASCII map of where a single capture's key material actually works.
func cloneScenario(d *core.Deployment, seed uint64) {
	fmt.Println("== node replication / clone placement (Section II) ==")
	ours := adversary.NewProtocolScheme(d)
	rng := xrand.New(seed * 7)
	for _, x := range []int{1, 5, 25} {
		rep := ours.ClonePlacement(rng.Sample(d.Graph.N(), x))
		fmt.Printf("captures=%-4d clone usable at %4d/%4d positions (%.1f%%)\n",
			x, rep.UsablePositions, rep.TotalPositions, 100*rep.Fraction())
	}

	// Map one capture's clone reach: C = captured node, + = position
	// where the clone can authenticate, . = safe territory.
	captured := rng.Sample(d.Graph.N(), 1)
	revealed := ours.RevealedClusters(captured)
	fmt.Printf("\nclone reach of capturing node %d (C = capture, + = clone-usable):\n", captured[0])
	fmt.Print(viz.Heat(d.Graph, func(i int) (float64, bool) { return 0, false },
		viz.Options{Width: 80, Mark: func(i int) (rune, bool) {
			if i == captured[0] {
				return 'C', true
			}
			for _, nb := range d.Graph.Neighbors(i) {
				if s := d.Sensors[nb]; s != nil {
					if cid, ok := s.Cluster(); ok && revealed[cid] {
						return '+', true
					}
				}
			}
			return 0, false
		}}))
	fmt.Println()
}

// floodScenario: HELLO flooding is useless against the deployed protocol
// (Km is erased) but inflates LEAP's key storage without bound.
func floodScenario(d *core.Deployment, seed uint64) {
	fmt.Println("== HELLO flood (Section III attack on LEAP) ==")
	victim := d.Graph.N() / 2
	lp := leap.New(d.Graph)
	fmt.Printf("LEAP victim baseline: %d keys\n", lp.KeysPerNode(victim))
	for _, f := range []int{100, 1000, 10000} {
		lp := leap.New(d.Graph)
		fmt.Printf("LEAP after %5d forged HELLOs: %d keys stored\n", f, lp.HelloFlood(victim, f))
	}

	// Against our protocol: inject forged HELLOs at the victim's position
	// post-setup and observe that nothing changes.
	before := d.Sensors[victim].ClusterKeyCount()
	cidBefore, _ := d.Sensors[victim].Cluster()
	var junk crypt.Key
	junk[5] = 0x42
	body := (&wire.Hello{HeadID: 999999, ClusterKey: junk}).Marshal()
	sealed := crypt.Seal(junk, 1, []byte{byte(wire.THello), 0, 0, 0, 0}, body)
	pkt, _ := (&wire.Frame{Type: wire.THello, Nonce: 1, Payload: sealed}).Marshal()
	// The adversary transmits from a position adjacent to the victim so
	// the victim itself hears every forgery.
	attackPos := victim
	if nbs := d.Graph.Neighbors(victim); len(nbs) > 0 {
		attackPos = int(nbs[0])
	}
	for k := 0; k < 1000; k++ {
		d.Eng.Schedule(d.Eng.Now()+time.Duration(k)*time.Millisecond, func() {
			d.Eng.InjectAt(attackPos, node.ID(999999), pkt)
		})
	}
	if _, err := d.Eng.RunUntilIdle(0); err != nil {
		fail(err)
	}
	after := d.Sensors[victim].ClusterKeyCount()
	cidAfter, _ := d.Sensors[victim].Cluster()
	fmt.Printf("localized protocol victim: %d keys before flood, %d after (cluster %d -> %d)\n\n",
		before, after, cidBefore, cidAfter)
}

// selectiveScenario: delivery under selective-forwarding droppers.
func selectiveScenario(d *core.Deployment, seed uint64) {
	fmt.Println("== selective forwarding (Section VI) ==")
	rng := xrand.New(seed * 11)
	nn := d.Graph.N()
	adversary.CompromiseNodes(d, rng.Sample(nn, nn/10))
	sent := 0
	before := len(d.Deliveries())
	base := d.Eng.Now()
	for k := 0; k < 50; k++ {
		src := 1 + rng.Intn(nn-1)
		if src == d.BSIndex || d.Sensors[src] == nil || d.Sensors[src].Malice.DropData {
			continue
		}
		d.SendReading(src, base+time.Duration(k+1)*5*time.Millisecond, []byte{byte(k)})
		sent++
	}
	if _, err := d.Eng.RunUntilIdle(0); err != nil {
		fail(err)
	}
	got := len(d.Deliveries()) - before
	fmt.Printf("10%% of nodes drop all relayed traffic: %d/%d readings still delivered (%.1f%%)\n\n",
		got, sent, 100*float64(got)/float64(max(sent, 1)))
}

// forgeScenario: forged and replayed traffic is rejected.
func forgeScenario(d *core.Deployment) {
	fmt.Println("== forgery & replay (Section IV-C guarantees) ==")
	before := len(d.Deliveries())
	var evil crypt.Key
	evil[0] = 0x99
	dd := &wire.Data{Tau: int64(d.Eng.Now()), SrcCID: 1, Readings: []wire.Reading{{Origin: 3, Seq: 1, Inner: []byte("forged")}}}
	sealed := crypt.Seal(evil, 7, []byte{byte(wire.TData), 0, 0, 0, 1}, dd.Marshal())
	pkt, _ := (&wire.Frame{Type: wire.TData, CID: 1, Nonce: 7, Payload: sealed}).Marshal()
	attackPos := d.BSIndex
	if nbs := d.Graph.Neighbors(d.BSIndex); len(nbs) > 0 {
		attackPos = int(nbs[0])
	}
	for k := 0; k < 100; k++ {
		d.Eng.Schedule(d.Eng.Now()+time.Duration(k)*time.Millisecond, func() {
			d.Eng.InjectAt(attackPos, node.ID(31337), pkt)
		})
	}
	if _, err := d.Eng.RunUntilIdle(0); err != nil {
		fail(err)
	}
	fmt.Printf("100 forged data packets injected next to the BS: %d accepted\n",
		len(d.Deliveries())-before)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "attack:", err)
	os.Exit(1)
}
