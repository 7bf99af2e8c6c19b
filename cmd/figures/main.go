// Command figures regenerates every figure of the paper's evaluation and
// the security-analysis comparisons, printing each as a text table.
//
// Usage:
//
//	figures [-n 2500] [-trials 5] [-seed 1] [-workers 0] [-shards 1]
//	        [-scale-sizes 25000,100000] [-memlimit 0] [-format text]
//	        [-obs :9090]
//	        [-only fig1,sweep,scale,resilience,broadcast,flood,selective,
//	               setup,storage,election,routing,freshness,mac,lifetime,
//	               setupcost,chaos,arq,authority,soak,mobility]
//
// With no -only flag every experiment runs. Paper-scale settings (the
// default) take a few minutes; -n 500 -trials 2 gives a quick pass with
// the same qualitative shapes. -workers=0 (the default) runs trials on
// one worker per CPU; -workers=1 forces the serial path. -format picks
// text or markdown tables. Output is bit-identical at every worker
// count (see docs/DETERMINISM.md).
//
// -shards S runs every trial's simulation on S shard goroutines (the
// trial pool shrinks so -workers still bounds total concurrency);
// -shards 0 picks S per deployment from its node count and GOMAXPROCS,
// and one shard per trial in a step whose trials alone fill the cores.
// Like -workers it never changes the output; see docs/SCALING.md. The scale
// step's ScaleSweep sizes come from -scale-sizes; reproducing the
// 10^6-node run is
//
//	figures -only scale -shards 8 -trials 1 -scale-sizes 1000000
//
// -memlimit sets a soft Go heap limit (runtime/debug.SetMemoryLimit)
// before any experiment runs, accepting plain bytes or KiB/MiB/GiB
// suffixes (e.g. -memlimit 2GiB). The scale step's ScaleSweep table
// reports the process's peak RSS, so limit and measurement pair up for
// the ROADMAP's 1M-nodes-in-2GB target; 0 (the default) leaves the
// runtime unbounded as before.
//
// -obs serves live observability endpoints (/metrics, /events,
// /debug/pprof) while the experiments run: worker-pool utilization and
// queue-wait histograms, protocol counters across every trial, and CPU
// profiles of the sweep in flight. Instrumentation never touches
// stdout, so the tables stay byte-identical with and without it (see
// docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
)

// usageText is the synopsis printed by -h. Keep it in sync with the
// package doc comment above; usage_test.go enforces that every
// registered flag appears here and that the doc comment carries these
// exact lines.
const usageText = `figures [-n 2500] [-trials 5] [-seed 1] [-workers 0] [-shards 1]
        [-scale-sizes 25000,100000] [-memlimit 0] [-format text]
        [-obs :9090]
        [-only fig1,sweep,scale,resilience,broadcast,flood,selective,
               setup,storage,election,routing,freshness,mac,lifetime,
               setupcost,chaos,arq,authority,soak,mobility]`

// options holds every figures flag; registerFlags binds them to a
// FlagSet so tests can exercise flag registration and usage output
// without touching the process-global flag.CommandLine.
type options struct {
	n          *int
	trials     *int
	seed       *uint64
	workers    *int
	shards     *int
	scaleSizes *string
	memLimit   *string
	only       *string
	format     *string
	obsAddr    *string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{
		n:          fs.Int("n", 2500, "network size (paper: 2500-3600)"),
		trials:     fs.Int("trials", 5, "independent deployments per data point"),
		seed:       fs.Uint64("seed", 1, "root random seed"),
		workers:    fs.Int("workers", 0, "concurrent trials (0 = one per CPU, 1 = serial)"),
		shards:     fs.Int("shards", 1, "goroutines per simulation; output is identical at every value (see docs/SCALING.md)"),
		scaleSizes: fs.String("scale-sizes", "25000,100000", "comma-separated network sizes for the scale step's ScaleSweep"),
		memLimit:   fs.String("memlimit", "0", "soft Go heap limit via debug.SetMemoryLimit (bytes or KiB/MiB/GiB suffix, e.g. 2GiB); 0 = unbounded"),
		only:       fs.String("only", "", "comma-separated subset of experiments to run"),
		format:     fs.String("format", "text", "output format: text or markdown"),
		obsAddr:    fs.String("obs", "", "serve /metrics, /events and /debug/pprof on this address (e.g. :9090); empty = off"),
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage:\n\n\t%s\n\nFlags:\n", usageText)
		fs.PrintDefaults()
	}
	return o
}

// chaosTables joins the two chaos-family sweeps into one printable step.
type chaosTables struct {
	crash *experiments.CrashChurnResult
	burst *experiments.BurstLossResult
}

func (c chaosTables) Table() string { return c.crash.Table() + "\n" + c.burst.Table() }

// mobilityTables joins the two mobility-family sweeps into one printable
// step.
type mobilityTables struct {
	speed *experiments.MobilityResult
	churn *experiments.MobilityResult
}

func (m mobilityTables) Table() string { return m.speed.Table() + "\n" + m.churn.Table() }

// scaleTables joins the scale step's two views: the cross-size curve
// comparison (ScaleInvariance) and the large-deployment streamed sweep
// (ScaleSweep).
type scaleTables struct {
	inv   *experiments.ScaleInvarianceResult
	sweep *experiments.ScaleSweepResult
}

func (s scaleTables) Table() string { return s.inv.Table() + "\n" + s.sweep.Table() }

// parseMemLimit parses the -memlimit value: a non-negative byte count
// with an optional KiB/MiB/GiB suffix (case-insensitive; a bare K/M/G
// also works). 0 means "leave the runtime unbounded".
func parseMemLimit(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	lower := strings.ToLower(s)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30},
	} {
		if strings.HasSuffix(lower, u.suffix) {
			mult = u.mult
			s = strings.TrimSpace(s[:len(s)-len(u.suffix)])
			break
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad -memlimit %q (want bytes, optionally with KiB/MiB/GiB suffix)", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("-memlimit overflows")
	}
	return n * mult, nil
}

// parseSizes parses the -scale-sizes list.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad -scale-sizes entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-scale-sizes is empty")
	}
	return out, nil
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if *o.format != "text" && *o.format != "markdown" {
		fmt.Fprintf(os.Stderr, "figures: unknown -format %q\n", *o.format)
		os.Exit(2)
	}

	opt := experiments.Options{Seed: *o.seed, Trials: *o.trials, N: *o.n, Workers: *o.workers, Shards: *o.shards}
	if err := opt.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(2)
	}
	scaleSizes, err := parseSizes(*o.scaleSizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(2)
	}
	memLimit, err := parseMemLimit(*o.memLimit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(2)
	}
	if memLimit > 0 {
		// A soft heap ceiling for the large-deployment steps: the GC works
		// harder near the limit instead of letting a 10^6-node sweep's heap
		// run away. Set before any experiment so the whole run is governed.
		debug.SetMemoryLimit(memLimit)
	}
	if *o.obsAddr != "" {
		reg := obs.NewRegistry()
		runner.Instrument(reg)
		opt.Obs = reg
		srv, err := obs.Serve(*o.obsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "figures: observability on http://%s (/metrics, /events, /debug/pprof)\n", srv.Addr())
	}
	// capped clamps one family's options to its registered scale caps.
	capped := func(family string) experiments.Options {
		return experiments.CapsFor(family).Apply(opt)
	}
	want := map[string]bool{}
	if *o.only != "" {
		for _, name := range strings.Split(*o.only, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	run := func(name string) bool { return len(want) == 0 || want[name] }

	type step struct {
		name string
		fn   func() (interface{ Table() string }, error)
	}
	steps := []step{
		{"fig1", func() (interface{ Table() string }, error) {
			return experiments.Figure1(opt, 8, 20)
		}},
		{"sweep", func() (interface{ Table() string }, error) {
			return experiments.DensitySweep(opt, nil)
		}},
		{"scale", func() (interface{ Table() string }, error) {
			inv, err := experiments.ScaleInvariance(opt, []int{1000, 2000, 4000}, []float64{8, 12.5, 20})
			if err != nil {
				return nil, err
			}
			sweep, err := experiments.ScaleSweep(capped("scale"), scaleSizes, 10)
			if err != nil {
				return nil, err
			}
			return scaleTables{inv, sweep}, nil
		}},
		{"resilience", func() (interface{ Table() string }, error) {
			return experiments.Resilience(opt, nil)
		}},
		{"broadcast", func() (interface{ Table() string }, error) {
			return experiments.BroadcastCost(opt, nil)
		}},
		{"flood", func() (interface{ Table() string }, error) {
			return experiments.HelloFlood(opt, nil)
		}},
		{"selective", func() (interface{ Table() string }, error) {
			return experiments.SelectiveForwarding(capped("selective"), nil)
		}},
		{"setup", func() (interface{ Table() string }, error) {
			return experiments.SetupTime(opt, nil)
		}},
		{"storage", func() (interface{ Table() string }, error) {
			return experiments.Storage(capped("storage"), nil, 12.5)
		}},
		{"election", func() (interface{ Table() string }, error) {
			return experiments.ElectionDelay(capped("election"), nil, 8)
		}},
		{"routing", func() (interface{ Table() string }, error) {
			return experiments.RoutingAblation(capped("routing"))
		}},
		{"freshness", func() (interface{ Table() string }, error) {
			return experiments.FreshWindow(capped("freshness"), nil)
		}},
		{"mac", func() (interface{ Table() string }, error) {
			return experiments.MACAblation(capped("mac"))
		}},
		{"lifetime", func() (interface{ Table() string }, error) {
			return experiments.Lifetime(capped("lifetime"), 2e6, 15, true)
		}},
		{"setupcost", func() (interface{ Table() string }, error) {
			return experiments.SetupCost(capped("setupcost"), nil)
		}},
		{"chaos", func() (interface{ Table() string }, error) {
			o := capped("chaos")
			crash, err := experiments.CrashChurn(o, nil)
			if err != nil {
				return nil, err
			}
			burst, err := experiments.BurstLoss(o, nil)
			if err != nil {
				return nil, err
			}
			return chaosTables{crash, burst}, nil
		}},
		{"arq", func() (interface{ Table() string }, error) {
			return experiments.ARQBurst(capped("arq"), nil)
		}},
		{"authority", func() (interface{ Table() string }, error) {
			return experiments.AuthorityResilience(capped("authority"), 2, 3, nil)
		}},
		{"soak", func() (interface{ Table() string }, error) {
			return experiments.Soak(capped("soak"), experiments.SoakModels, 8)
		}},
		{"mobility", func() (interface{ Table() string }, error) {
			o := capped("mobility")
			speed, err := experiments.MobilitySpeedSweep(o, nil)
			if err != nil {
				return nil, err
			}
			churn, err := experiments.MobilityChurnSweep(o, nil)
			if err != nil {
				return nil, err
			}
			return mobilityTables{speed, churn}, nil
		}},
	}

	if *o.format == "markdown" {
		fmt.Printf("# Experiment results (n=%d, trials=%d, seed=%d)\n\n", *o.n, *o.trials, *o.seed)
	}
	for _, s := range steps {
		if !run(s.name) {
			continue
		}
		start := time.Now()
		res, err := s.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", s.name, err)
			os.Exit(1)
		}
		switch *o.format {
		case "markdown":
			fmt.Printf("## %s\n\n_%.1fs_\n\n```\n%s```\n\n",
				s.name, time.Since(start).Seconds(), res.Table())
		default:
			fmt.Printf("==== %s (%.1fs) ====\n%s\n", s.name, time.Since(start).Seconds(), res.Table())
		}
	}
}
