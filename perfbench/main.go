// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation, checks the program's outputs, and prints as
// its last line a JSON object with the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload keysetup --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the
// layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minReps is the fewest repetitions a run makes, so every timed metric
// is a median of at least three samples even when --seconds is short.
const minReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: keysetup, soak-batch or lab-arq")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "host seconds to keep repeating the workload")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want keysetup, soak-batch or lab-arq)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// The workloads are single-threaded; the cap keeps the garbage
	// collector's parallelism, and so cpu_us_per_item, comparable across
	// machines with more cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	steal0 := stealSeconds()
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traceFlag == 1 {
		res, err = runTraced(w, *seed, budget, *out, stdout)
	} else {
		res, err = runUntraced(w, *seed, budget, stdout)
	}
	meta := machineMeta(stealSeconds() - steal0)
	metaLine, _ := json.Marshal(map[string]any{"workload": w.name, "seed": *seed, "machine": meta})
	fmt.Fprintf(stdout, "meta %s\n", metaLine)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// repeat calls rep until the budget is spent and at least minReps
// repetitions are done, and checks that every repetition reproduced the
// first one's exact counts: the inputs are identical, so any difference
// is nondeterminism in the program.
func repeat(budget time.Duration, rep func() (repResult, error)) ([]repResult, error) {
	start := time.Now()
	var reps []repResult
	for len(reps) < minReps || time.Since(start) < budget {
		// Each repetition starts from a collected heap, so one
		// repetition's garbage is not charged to the next.
		runtime.GC()
		steal0 := stealSeconds()
		r, err := rep()
		r.steal = stealSeconds() - steal0
		if err != nil {
			return reps, err
		}
		if len(reps) > 0 && r.counts != reps[0].counts {
			return reps, fmt.Errorf("repetition %d counts %+v differ from the first's %+v", len(reps), r.counts, reps[0].counts)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

func runUntraced(w workload, seed uint64, budget time.Duration, stdout io.Writer) (result, error) {
	reps, err := repeat(budget, func() (repResult, error) { return w.rep(seed, nil) })
	res := tally(reps)
	if err != nil || len(reps) == 0 {
		return res, err
	}
	c := reps[0].counts
	if err := checkRatios(c); err != nil {
		return res, err
	}
	per := func(f func(r repResult) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	res.Metrics = map[string]metric{
		"setup_s":         {per(func(r repResult) float64 { return r.setup.Seconds() }), "s"},
		"items_per_s":     {per(func(r repResult) float64 { return float64(c.Passed) / r.measured.Seconds() }), "1/s"},
		"cpu_us_per_item": {per(func(r repResult) float64 { return float64(r.cpu) / float64(time.Microsecond) / float64(c.Passed) }), "us"},
		"success_ratio":   {float64(c.Passed) / float64(c.Attempted), "fraction"},
		"tx_per_item":     {float64(c.Tx) / float64(c.Passed), "frames"},
		"keys_per_node":   {float64(c.Keys) / float64(c.KeyNodes), "keys"},
		"latency_p50_ms":  {ms(c.LatP50), "ms"},
		"latency_p99_ms":  {ms(c.LatP99), "ms"},
		"peak_rss_mib":    {float64(obs.PeakRSSBytes()) / (1 << 20), "MiB"},
	}
	for i, r := range reps {
		fmt.Fprintf(stdout, "rep %d: setup %.4fs measured %.4fs cpu %.4fs gc_cycles %d steal %.2fs\n",
			i, r.setup.Seconds(), r.measured.Seconds(), r.cpu.Seconds(), r.gc.cycles, r.steal)
	}
	fmt.Fprintf(stdout, "%s seed=%d reps=%d items=%d/%d latency_samples=%d\n",
		w.name, seed, len(reps), c.Passed, c.Attempted, c.LatSamples)
	return res, nil
}

// checkRatios rejects counts that would leave a per-item metric
// undefined.
func checkRatios(c counts) error {
	if c.Passed == 0 || c.KeyNodes == 0 {
		return fmt.Errorf("no item passed the output check (%+v)", c)
	}
	return nil
}

// tally fills the result's correctness fields from the repetitions run.
// A repetition whose outputs failed a check makes the run incorrect.
func tally(reps []repResult) result {
	res := result{Metrics: map[string]metric{}}
	for _, r := range reps {
		res.Attempted += r.counts.Attempted
		res.Failed += r.counts.Bad
	}
	res.Correct = len(reps) > 0 && res.Failed == 0
	return res
}

func runTraced(w workload, seed uint64, budget time.Duration, out string, stdout io.Writer) (result, error) {
	// Each repetition is a pair: untraced, then traced on the same inputs.
	var plain []repResult
	var first *tracer
	traced, err := repeat(budget, func() (repResult, error) {
		p, err := w.rep(seed, nil)
		if err != nil {
			return p, err
		}
		runtime.GC()
		tr := newTracer()
		t, err := w.rep(seed, tr)
		if err != nil {
			return t, err
		}
		// The traced assembly must reproduce the untraced run exactly;
		// otherwise its per-layer numbers describe a different run.
		if t.counts != p.counts {
			return t, fmt.Errorf("traced counts %+v differ from untraced %+v", t.counts, p.counts)
		}
		plain = append(plain, p)
		if first == nil {
			first = tr
		}
		return t, nil
	})
	res := tally(traced)
	if err != nil || len(traced) == 0 {
		return res, err
	}
	if err := checkRatios(traced[0].counts); err != nil {
		return res, err
	}
	for name, m := range traced[0].layers {
		v := make([]float64, len(traced))
		for i, t := range traced {
			v[i] = t.layers[name].Value
		}
		res.Metrics[name] = metric{median(v), m.Unit}
	}
	over := make([]float64, len(traced))
	for i := range traced {
		over[i] = traced[i].measured.Seconds()/plain[i].measured.Seconds() - 1
	}
	res.Metrics["trace.overhead_frac"] = metric{median(over), "fraction"}
	p := plain[0]
	items := float64(p.counts.Passed)
	res.Metrics["go.gc_cycles"] = metric{float64(p.gc.cycles), "count"}
	res.Metrics["go.gc_cpu_s"] = metric{p.gc.cpuSeconds, "s"}
	res.Metrics["go.alloc_bytes_per_item"] = metric{float64(p.gc.allocBytes) / items, "B"}

	path, err := first.writeSpans(out, w.name, seed)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(stdout, "%s seed=%d traced_pairs=%d spans=%s (%d kept of %d)\n",
		w.name, seed, len(traced), path, len(first.spans), first.total)
	return res, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
