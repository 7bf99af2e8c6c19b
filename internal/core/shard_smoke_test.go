package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

func TestShardSmokeInvariance(t *testing.T) {
	plan := &faults.Plan{
		Events: []faults.Event{
			{Kind: faults.KindCrash, At: 200 * time.Millisecond, Node: 5},
			{Kind: faults.KindReboot, At: 700 * time.Millisecond, Node: 5},
			{Kind: faults.KindBurst, At: 100 * time.Millisecond, Until: 400 * time.Millisecond, PGB: 0.3, PBG: 0.4, LossGood: 0.02, LossBad: 0.6},
		},
	}
	for _, tc := range []struct {
		name string
		opt  DeployOptions
	}{
		{"plain", DeployOptions{N: 300, Density: 10, Seed: 7}},
		{"loss", DeployOptions{N: 300, Density: 10, Seed: 8, Loss: 0.1}},
		{"collisions", DeployOptions{N: 300, Density: 10, Seed: 9, Collisions: true, Jitter: 3 * time.Millisecond}},
		{"faults", DeployOptions{N: 300, Density: 10, Seed: 10, Loss: 0.05, Faults: plan}},
		{"battery", DeployOptions{N: 300, Density: 10, Seed: 11, Battery: 3000}},
	} {
		var deaths1, deathsN string
		sig := func(shards int) string {
			opt := tc.opt
			opt.Shards = shards
			var deaths []string
			if opt.Battery > 0 {
				opt.OnDeath = func(i int, at time.Duration) { deaths = append(deaths, fmt.Sprint(i, at)) }
			}
			d, err := Deploy(opt)
			if err != nil {
				t.Fatal(err)
			}
			d.Eng.Run(2 * time.Second)
			st := d.Clusters()
			en := d.Energy()
			ds := fmt.Sprint(deaths)
			if shards == 1 {
				deaths1 = ds
			} else {
				deathsN = ds
			}
			return fmt.Sprintf("clusters=%d heads=%d mean=%v tx=%d rx=%d e=%v",
				st.NumClusters, st.Heads, st.MeanSize, en.TxCount, en.RxCount, en.TotalMicroJ())
		}
		s1 := sig(1)
		for _, s := range []int{2, 4, 7} {
			if got := sig(s); got != s1 {
				t.Errorf("%s shards=%d: %s\n  want (s=1): %s", tc.name, s, got, s1)
			}
			if deathsN != deaths1 {
				t.Errorf("%s shards=%d deaths: %s want %s", tc.name, s, deathsN, deaths1)
			}
		}
		t.Logf("%s: %s", tc.name, s1)
	}
}

// TestDeployAutoShardsMatchesOneShard deploys above the automatic
// sharding threshold with Shards left at 0 and requires the run to match
// a forced single shard exactly: deliveries, cluster assignment, setup
// transmission counts and the trace stream. At GOMAXPROCS 1 the two
// runs resolve to the same single shard; run it with -cpu 1,2 to cover
// the parallel resolution too.
func TestDeployAutoShardsMatchesOneShard(t *testing.T) {
	const n = 2500
	if sim.AutoShards(0, n, 2) < 2 {
		t.Fatalf("n = %d no longer resolves to two shards on two cores; raise it", n)
	}
	type run struct {
		shards     int
		deliveries []Delivery
		clusters   []string
		setupTx    []int
		trace      uint64
		traced     int
	}
	deploy := func(shards int) run {
		h := fnv.New64a()
		var traced int
		var rec [32]byte
		d, err := Deploy(DeployOptions{
			N: n, Density: 10, Seed: 23, Loss: 0.02, Shards: shards,
			Trace: func(ev sim.TraceEvent) {
				traced++
				binary.LittleEndian.PutUint64(rec[0:], uint64(ev.At))
				binary.LittleEndian.PutUint64(rec[8:], uint64(ev.From))
				binary.LittleEndian.PutUint64(rec[16:], uint64(ev.To))
				binary.LittleEndian.PutUint64(rec[24:], uint64(ev.Size))
				if ev.Lost {
					rec[24] ^= 0xff
				}
				h.Write(rec[:])
				h.Write(ev.Pkt)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RunSetup(); err != nil {
			t.Fatal(err)
		}
		start := d.Eng.Now() + 100*time.Millisecond
		for k := 0; k < 40; k++ {
			src := 1 + (k*997)%(n-1)
			if src != d.BSIndex {
				d.SendReading(src, start+time.Duration(k)*7*time.Millisecond, []byte{byte(k), 0xa5})
			}
		}
		d.Eng.Run(start + 3*time.Second)
		r := run{shards: d.Eng.ShardCount(), setupTx: d.SetupTxCounts(), trace: h.Sum64(), traced: traced}
		r.deliveries = d.Deliveries()
		for i, s := range d.Sensors {
			cid, ok := s.Cluster()
			r.clusters = append(r.clusters, fmt.Sprint(i, cid, ok))
		}
		return r
	}
	one, auto := deploy(1), deploy(0)
	if want := sim.AutoShards(0, n, runtime.GOMAXPROCS(0)); auto.shards != want {
		t.Fatalf("Shards 0 ran on %d shards, want %d at GOMAXPROCS %d", auto.shards, want, runtime.GOMAXPROCS(0))
	}
	t.Logf("Shards 0 resolved to %d shards at GOMAXPROCS %d; %d deliveries, %d traced attempts",
		auto.shards, runtime.GOMAXPROCS(0), len(one.deliveries), one.traced)
	if len(one.deliveries) == 0 {
		t.Fatal("no readings delivered")
	}
	if !reflect.DeepEqual(one.deliveries, auto.deliveries) {
		t.Errorf("deliveries differ: %d at one shard, %d at %d", len(one.deliveries), len(auto.deliveries), auto.shards)
	}
	if !slices.Equal(one.clusters, auto.clusters) {
		t.Error("cluster assignment differs")
	}
	if !slices.Equal(one.setupTx, auto.setupTx) {
		t.Error("SetupTxCounts differ")
	}
	if one.trace != auto.trace || one.traced != auto.traced {
		t.Errorf("trace stream differs: %d attempts hash %x at one shard, %d hash %x at %d",
			one.traced, one.trace, auto.traced, auto.trace, auto.shards)
	}
}
