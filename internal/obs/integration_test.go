package obs_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestInstrumentedChaosRun drives a self-healing deployment through a
// clusterhead crash with observability attached and checks the whole
// pipeline end to end: protocol counters, labeled milestone events, the
// repair-latency histogram, and the HTTP exposition endpoints.
func TestInstrumentedChaosRun(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.KeepAlivePeriod = 100 * time.Millisecond
	cfg.SetupRetries = 2
	cfg.DataRetries = 2

	reg := obs.NewRegistry()
	d, err := core.Deploy(core.DeployOptions{
		N: 200, Density: 10, Seed: 5, Config: cfg,
		Obs: reg.Scope("itest", 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}

	// Crash a clusterhead that has at least one surviving member, so a
	// local repair election is guaranteed to follow.
	members := map[uint32]int{}
	for i, s := range d.Sensors {
		if s == nil || i == d.BSIndex {
			continue
		}
		if cid, ok := s.Cluster(); ok && int(cid) != i {
			members[cid]++
		}
	}
	victim := -1
	for i, s := range d.Sensors {
		if s == nil || i == d.BSIndex {
			continue
		}
		if s.Head() == s.ID() && members[uint32(i)] > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no crashable clusterhead found")
	}
	crashAt := d.Eng.Now() + 50*time.Millisecond
	d.Eng.Schedule(crashAt, func() { d.Eng.Crash(victim) })
	miss := core.KeepAliveMisses * cfg.KeepAlivePeriod
	settled := crashAt + miss + 2*time.Second
	d.Eng.Run(settled)

	// Originate a few readings from survivors so data flows to the BS.
	sent := 0
	for i := 1; i < 200 && sent < 10; i += 17 {
		if i == d.BSIndex || !d.Eng.Alive(i) {
			continue
		}
		d.SendReading(i, settled+time.Duration(sent+1)*20*time.Millisecond, []byte{byte(i)})
		sent++
	}
	d.Eng.Run(settled + 3*time.Second)

	snap := reg.Snapshot()
	count := func(name string) uint64 {
		v, _ := snap[name].(uint64)
		return v
	}
	for _, name := range []string{
		"core_elections_total",
		"core_setup_tx_total",
		"core_setup_retx_total",
		"core_km_erasures_total",
		"core_repairs_total",
		"core_bs_deliveries_total",
		"sim_tx_total",
		"sim_rx_total",
		"sim_events_total",
	} {
		if count(name) == 0 {
			t.Errorf("%s = 0, want nonzero", name)
		}
	}
	if got := count("sim_crashes_total"); got != 1 {
		t.Errorf("sim_crashes_total = %d, want 1", got)
	}
	hist, ok := snap["core_repair_takeover_seconds"].(obs.HistogramSnapshot)
	if !ok || hist.Count == 0 {
		t.Errorf("core_repair_takeover_seconds = %#v, want observations", snap["core_repair_takeover_seconds"])
	}

	// The milestone stream must carry the election, erasure, crash, and
	// repair events, all stamped with the scope's run/trial labels.
	kinds := map[string]int{}
	for _, ev := range reg.Events().Snapshot() {
		if ev.Run != "itest" || ev.Trial != 3 {
			t.Fatalf("event with wrong labels: %+v", ev)
		}
		kinds[ev.Kind]++
	}
	for _, k := range []string{
		obs.KindElection, obs.KindKmErase, obs.KindCrash,
		obs.KindRepairStart, obs.KindRepair, obs.KindRetransmit,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %q events recorded (kinds: %v)", k, kinds)
		}
	}

	// Scrape the live endpoints the way CI does.
	srv := httptest.NewServer(obs.NewMux(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, pat := range []string{
		`(?m)^core_setup_tx_total [1-9]`,
		`(?m)^core_repairs_total [1-9]`,
		`(?m)^core_setup_retx_total [1-9]`,
	} {
		if !regexp.MustCompile(pat).Match(body) {
			t.Errorf("/metrics missing %s:\n%s", pat, body)
		}
	}
	prof, err := http.Get(srv.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, prof.Body)
	prof.Body.Close()
	if prof.StatusCode != http.StatusOK {
		t.Errorf("pprof profile status %s", prof.Status)
	}
}
