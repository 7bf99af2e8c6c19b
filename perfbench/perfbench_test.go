package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// testSizes shrinks every workload so the suite runs in seconds.
var testSizes = sizes{
	keysetupNodes: 600,
	soakTrials:    2,
	soakNodes:     200,
	soakWindow:    100 * time.Millisecond,
	labTrials:     2,
	labNodes:      100,
	labWindow:     200 * time.Millisecond,
	senders:       10,
}

// exact returns the metrics that must repeat bit for bit for one seed.
func exact(c counts) [5]float64 {
	return [5]float64{
		float64(c.Tx) / float64(c.Passed),
		float64(c.Keys) / float64(c.KeyNodes),
		float64(c.Passed) / float64(c.Attempted),
		ms(c.LatP50),
		ms(c.LatP99),
	}
}

func TestDeterminism(t *testing.T) {
	for name, w := range workloadsFor(testSizes) {
		t.Run(name, func(t *testing.T) {
			a, err := w.rep(7, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.rep(7, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.counts != b.counts || exact(a.counts) != exact(b.counts) {
				t.Fatalf("seed 7 ran twice: %+v then %+v", a.counts, b.counts)
			}
			if a.counts.Passed == 0 || a.counts.Bad != 0 {
				t.Fatalf("seed 7 counts %+v: want items passing and none bad", a.counts)
			}
			c, err := w.rep(8, nil)
			if err != nil {
				t.Fatal(err)
			}
			if exact(c.counts) == exact(a.counts) {
				t.Fatalf("seeds 7 and 8 gave identical exact metrics %v", exact(a.counts))
			}
		})
	}
}

// TestTracedFidelity checks that the traced assembly reproduces the
// untraced run's exact counts and reports every per-layer metric.
func TestTracedFidelity(t *testing.T) {
	spec := readSpec(t)
	for name, w := range workloadsFor(testSizes) {
		t.Run(name, func(t *testing.T) {
			plain, err := w.rep(3, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.rep(3, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if plain.counts != traced.counts {
				t.Fatalf("traced counts %+v differ from untraced %+v", traced.counts, plain.counts)
			}
			// runTraced adds the run-level metrics to the repetition's.
			got := []string{"go.alloc_bytes_per_item", "go.gc_cpu_s", "go.gc_cycles", "trace.overhead_frac"}
			for m := range traced.layers {
				got = append(got, m)
			}
			if want := spec.names(spec.PerLayer); strings.Join(sorted(got), " ") != strings.Join(want, " ") {
				t.Fatalf("per-layer metrics\n got %v\nwant %v", sorted(got), want)
			}
			if traced.layers["core.callbacks"].Value == 0 {
				t.Fatal("traced run recorded no core callbacks")
			}
		})
	}
}

// TestResultLine runs the command end to end at test sizes and checks
// the last line carries exactly BENCHMARK.json's end-to-end metrics with
// their units.
func TestResultLine(t *testing.T) {
	spec := readSpec(t)
	saved := workloads
	workloads = workloadsFor(testSizes)
	defer func() { workloads = saved }()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "soak-batch", "--seed", "2", "--seconds", "0.01"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	var got []string
	for name, m := range res.Metrics {
		got = append(got, name)
		if m.Unit != spec.unit(name) {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, spec.unit(name))
		}
		if m.Value == 0 {
			t.Errorf("%s is 0", name)
		}
	}
	if want := spec.names(spec.EndToEnd); strings.Join(sorted(got), " ") != strings.Join(want, " ") {
		t.Fatalf("end-to-end metrics\n got %v\nwant %v", sorted(got), want)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

func TestScheduleCheck(t *testing.T) {
	hops := []int{0, 1, 2, 3, 4}
	sch, err := newSchedule(5, hops, 2, 30*time.Millisecond, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.readings) != 6 {
		t.Fatalf("%d readings, want 6", len(sch.readings))
	}
	deliver := func(i int) core.Delivery {
		rd := sch.readings[i]
		for k, idx := range sch.index {
			if idx == i {
				return core.Delivery{Origin: k.origin, Seq: k.seq, Data: rd.data, At: rd.at + 5*time.Millisecond, Encrypted: true}
			}
		}
		t.Fatalf("reading %d has no key", i)
		return core.Delivery{}
	}
	good := []core.Delivery{deliver(0), deliver(1), deliver(2), deliver(3)}
	c, lat := sch.check(good)
	if c.Attempted != 6 || c.Passed != 4 || c.Bad != 0 || len(lat) != 4 || lat[0] != 5*time.Millisecond {
		t.Fatalf("missing readings: counts %+v lat %v", c, lat)
	}

	altered := deliver(4)
	altered.Data = append([]byte(nil), altered.Data...)
	altered.Data[0] ^= 1
	plain := deliver(5)
	plain.Encrypted = false
	unknown := deliver(0)
	unknown.Seq = 99
	for name, d := range map[string]core.Delivery{
		"duplicate": deliver(0), "altered": altered, "unencrypted": plain, "unknown": unknown,
	} {
		if c, _ := sch.check(append(good[:4:4], d)); c.Bad != 1 {
			t.Errorf("%s delivery: counts %+v, want one bad", name, c)
		}
	}
}

func TestPercentiles(t *testing.T) {
	v := make([]time.Duration, 200)
	for i := range v {
		v[len(v)-1-i] = time.Duration(i+1) * time.Millisecond
	}
	p50, p99, n := percentiles(v)
	if p50 != 100*time.Millisecond || p99 != 198*time.Millisecond || n != 200 {
		t.Fatalf("p50 %v p99 %v n %d", p50, p99, n)
	}
}

// benchSpec is the part of BENCHMARK.json the tests compare against.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s benchSpec) names(ms []struct{ Name, Unit string }) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return sorted(out)
}

func (s benchSpec) unit(name string) string {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

func sorted(v []string) []string {
	sort.Strings(v)
	return v
}
