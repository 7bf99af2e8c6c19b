package experiments

// The serial-equivalence harness: every experiment family must produce
// byte-identical output whether its trials run on one worker (the old
// serial code path) or on a pool. Results are marshaled to JSON — the
// stats types serialize their full accumulator state with round-trippable
// floats — so "equal bytes" means "bit-identical result", including
// observation order.

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

// family is one experiment entry point closed over small, fast arguments.
type family struct {
	name string
	run  func(o Options) (any, error)
}

// equivFamilies lists every experiment family at equivalence-test scale.
func equivFamilies() []family {
	return []family{
		{"DensitySweep", func(o Options) (any, error) {
			return DensitySweep(o, []float64{8, 15})
		}},
		{"Figure1", func(o Options) (any, error) {
			return Figure1(o, 8, 20)
		}},
		{"ScaleInvariance", func(o Options) (any, error) {
			return ScaleInvariance(o, []int{150, 300}, []float64{10})
		}},
		{"SetupTime", func(o Options) (any, error) {
			return SetupTime(o, []float64{10})
		}},
		{"Resilience", func(o Options) (any, error) {
			return Resilience(o, []int{5, 25})
		}},
		{"BroadcastCost", func(o Options) (any, error) {
			return BroadcastCost(o, []float64{10, 15})
		}},
		{"HelloFlood", func(o Options) (any, error) {
			return HelloFlood(o, []int{0, 50})
		}},
		{"SelectiveForwarding", func(o Options) (any, error) {
			return SelectiveForwarding(o, []float64{0, 0.2})
		}},
		{"SetupCost", func(o Options) (any, error) {
			return SetupCost(o, []float64{10})
		}},
		{"Storage", func(o Options) (any, error) {
			return Storage(o, []int{150, 300}, 10)
		}},
		{"ElectionDelay", func(o Options) (any, error) {
			return ElectionDelay(o, []int{5, 50}, 8)
		}},
		{"RoutingAblation", func(o Options) (any, error) {
			return RoutingAblation(o)
		}},
		{"FreshWindow", func(o Options) (any, error) {
			return FreshWindow(o, []int{2, 250})
		}},
		{"MACAblation", func(o Options) (any, error) {
			return MACAblation(o)
		}},
		{"Lifetime", func(o Options) (any, error) {
			return Lifetime(o, 2e6, 6, true)
		}},
		{"CrashChurn", func(o Options) (any, error) {
			return CrashChurn(o, []float64{0, 0.2})
		}},
		{"BurstLoss", func(o Options) (any, error) {
			return BurstLoss(o, []float64{0, 0.6})
		}},
		{"ARQBurst", func(o Options) (any, error) {
			return ARQBurst(o, []float64{0, 0.6})
		}},
		{"ScaleSweep", func(o Options) (any, error) {
			return ScaleSweep(o, []int{150, 300}, 10)
		}},
		{"AuthorityResilience", func(o Options) (any, error) {
			return AuthorityResilience(o, 2, 3, []int{0, 1})
		}},
		{"Soak", func(o Options) (any, error) {
			return Soak(o, []string{"cbr", "event"}, 8)
		}},
		{"MobilitySpeedSweep", func(o Options) (any, error) {
			return MobilitySpeedSweep(o, []float64{0, 2})
		}},
		{"MobilityChurnSweep", func(o Options) (any, error) {
			return MobilityChurnSweep(o, []float64{0, 0.5})
		}},
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestParallelSerialEquivalence proves the deterministic-runner contract:
// for every family and several base seeds, a pooled run (workers=4, which
// exercises real goroutine interleaving even on one CPU) marshals to the
// same bytes as the workers=1 serial path.
func TestParallelSerialEquivalence(t *testing.T) {
	for _, fam := range equivFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{3, 17, 101} {
				o := Options{Seed: seed, Trials: 2, N: 220}
				serial := o
				serial.Workers = 1
				parallel := o
				parallel.Workers = 4
				rs, err := fam.run(serial)
				if err != nil {
					t.Fatalf("seed %d serial: %v", seed, err)
				}
				rp, err := fam.run(parallel)
				if err != nil {
					t.Fatalf("seed %d parallel: %v", seed, err)
				}
				js, jp := mustJSON(t, rs), mustJSON(t, rp)
				if !bytes.Equal(js, jp) {
					t.Fatalf("seed %d: parallel output differs from serial\nserial:   %s\nparallel: %s",
						seed, js, jp)
				}
			}
		})
	}
}

// TestChaosEquivalenceAcrossWorkerCounts pins the fault-injection
// determinism contract at three pool sizes: the chaos family — whose
// trials consume injector streams, crash nodes, and run repair elections
// — must marshal to the same bytes at workers 1, 4, and GOMAXPROCS
// (Workers=0).
func TestChaosEquivalenceAcrossWorkerCounts(t *testing.T) {
	runs := []struct {
		name string
		run  func(o Options) (any, error)
	}{
		{"CrashChurn", func(o Options) (any, error) { return CrashChurn(o, []float64{0.1, 0.25}) }},
		{"BurstLoss", func(o Options) (any, error) { return BurstLoss(o, []float64{0.3, 0.9}) }},
		{"ARQBurst", func(o Options) (any, error) { return ARQBurst(o, []float64{0.3, 0.9}) }},
	}
	for _, fam := range runs {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			var ref []byte
			for _, workers := range []int{1, 4, 0} {
				o := Options{Seed: 29, Trials: 2, N: 220, Workers: workers}
				res, err := fam.run(o)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				j := mustJSON(t, res)
				if ref == nil {
					ref = j
				} else if !bytes.Equal(ref, j) {
					t.Fatalf("workers=%d output differs from workers=1\nref: %s\ngot: %s", workers, ref, j)
				}
			}
		})
	}
}

// TestShardCountEquivalence proves the engine's invariance contract at
// the experiment level: every family marshals to the same bytes at
// Shards 0, 1, 2, 4, and GOMAXPROCS (docs/SCALING.md).
func TestShardCountEquivalence(t *testing.T) {
	shardCounts := []int{0, 1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 1 && p != 2 && p != 4 {
		shardCounts = append(shardCounts, p)
	}
	for _, fam := range equivFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			var ref []byte
			for _, shards := range shardCounts {
				o := Options{Seed: 11, Trials: 2, N: 220, Workers: 4, Shards: shards}
				res, err := fam.run(o)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				j := mustJSON(t, res)
				if ref == nil {
					ref = j
				} else if !bytes.Equal(ref, j) {
					t.Fatalf("shards=%d output differs from shards=0\nref: %s\ngot: %s", shards, ref, j)
				}
			}
		})
	}
}

// TestPoolOneShardPerTrialWhenCellsFill checks how the trial pool
// settles Shards 0 at GOMAXPROCS 2, for a deployment large enough for
// two shards: one shard per trial once the cells alone can fill both
// cores, the automatic count otherwise, and an explicit count always.
func TestPoolOneShardPerTrialWhenCellsFill(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 4000
	for _, c := range []struct {
		name                   string
		o                      Options
		cells, shards, workers int
	}{
		{"cells fill the cores", Options{}, 2, 1, 2},
		{"one cell", Options{}, 1, 2, 1},
		{"serial pool", Options{Workers: 1}, 8, 2, 1},
		{"explicit shards", Options{Shards: 2}, 8, 2, 1},
		{"wide pool", Options{Workers: 4}, 8, 1, 4},
	} {
		po, workers := c.o.pool(n, c.cells)
		if got := po.shards(n); got != c.shards || workers != c.workers {
			t.Errorf("%s: %d shards on %d workers; want %d on %d", c.name, got, workers, c.shards, c.workers)
		}
	}
}

// TestParallelDeterminismRepeatedRuns is the scheduling-nondeterminism
// regression: the same Options run twice on a multi-worker pool must
// marshal identically. Map iteration leaking into observation order, a
// racing accumulator, or any seed derived from execution order would all
// show up here as a byte diff between two runs.
func TestParallelDeterminismRepeatedRuns(t *testing.T) {
	for _, fam := range equivFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			o := Options{Seed: 7, Trials: 3, N: 220, Workers: 4}
			first, err := fam.run(o)
			if err != nil {
				t.Fatal(err)
			}
			second, err := fam.run(o)
			if err != nil {
				t.Fatal(err)
			}
			j1, j2 := mustJSON(t, first), mustJSON(t, second)
			if !bytes.Equal(j1, j2) {
				t.Fatalf("two identical runs diverged\nfirst:  %s\nsecond: %s", j1, j2)
			}
		})
	}
}
