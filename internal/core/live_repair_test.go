package core

import (
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/node"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// TestClusterRepairUnderLiveRuntime crashes a clusterhead in the
// goroutine-per-node runtime and waits for the keep-alive/repair
// machinery to re-elect under real scheduling nondeterminism. Run with
// -race: it exercises the crash path (radio channel closed mid-traffic)
// against concurrent keep-alive broadcasts from every cluster.
func TestClusterRepairUnderLiveRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time setup and keep-alive rounds take seconds")
	}
	const n = 60
	cfg := DefaultConfig()
	cfg.HelloMeanDelay = 10 * time.Millisecond
	cfg.ClusterPhaseEnd = 120 * time.Millisecond
	cfg.LinkSpread = 60 * time.Millisecond
	cfg.FreshWindow = time.Second // scheduling jitter is real here
	cfg.KeepAlivePeriod = 60 * time.Millisecond
	cfg.DataRetries = 2

	graph, err := topology.Generate(xrand.New(43), topology.Config{N: n, Density: 10})
	if err != nil {
		t.Fatal(err)
	}
	auth := AuthorityFromSeed(43, cfg.ChainLength)
	sensors := make([]*Sensor, n)
	behaviors := make([]node.Behavior, n)
	repaired := make(chan node.ID, n)
	for i := 0; i < n; i++ {
		m := auth.MaterialFor(node.ID(i))
		if i == 0 {
			sensors[i] = NewBaseStation(cfg, m, auth)
		} else {
			sensors[i] = NewSensor(cfg, m)
		}
		// Set before Start: the callback fires on the claimant's own
		// goroutine, so it must only touch the channel.
		sensors[i].OnRepaired = func(_ uint32, newHead node.ID, _ time.Duration) {
			repaired <- newHead
		}
		behaviors[i] = sensors[i]
	}
	delivered := make(chan Delivery, 16)
	sensors[0].SetOnDeliver(func(d Delivery) { delivered <- d })

	net := live.Start(live.Config{Graph: graph, Seed: 43}, behaviors)
	defer net.Stop()

	// Wait for setup to complete in real time (state read through Do so
	// each sensor is only touched on its own goroutine).
	waitAll := func(desc string, pred func(i int) bool) {
		deadline := time.Now().Add(8 * time.Second)
		for {
			done := make(chan int, n)
			for i := 0; i < n; i++ {
				i := i
				net.Do(i, func(node.Context) {
					if pred(i) {
						done <- 1
					} else {
						done <- 0
					}
				})
			}
			ok := 0
			for i := 0; i < n; i++ {
				ok += <-done
			}
			if ok == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: only %d/%d nodes ready", desc, ok, n)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitAll("setup", func(i int) bool { return sensors[i].Phase() == PhaseOperational })

	// Map the clusters (single-threaded: all node goroutines are only
	// polled through Do below, but cluster assignments are stable once
	// operational, so one snapshot through Do is enough).
	clusterOf := make([]uint32, n)
	snap := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		i := i
		net.Do(i, func(node.Context) {
			clusterOf[i], _ = sensors[i].Cluster()
			snap <- struct{}{}
		})
	}
	for i := 0; i < n; i++ {
		<-snap
	}
	members := make(map[uint32][]int)
	for i := 1; i < n; i++ {
		if int(clusterOf[i]) != i {
			members[clusterOf[i]] = append(members[clusterOf[i]], i)
		}
	}
	victim, victimMembers := -1, []int(nil)
	for cid, mm := range members {
		head := int(cid)
		if head != 0 && head < n && len(mm) >= 2 {
			victim, victimMembers = head, mm
			break
		}
	}
	if victim < 0 {
		t.Skip("no multi-member cluster in this topology; adjust seed")
	}

	net.Crash(victim)
	if net.Alive(victim) {
		t.Fatal("crashed head reported alive")
	}

	select {
	case newHead := <-repaired:
		if int(newHead) == victim {
			t.Fatalf("dead head %d claimed its own repair", victim)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("no repair election after the head crashed")
	}

	// Authenticated delivery resumes from the repaired cluster.
	src := victimMembers[0]
	deadline := time.Now().Add(8 * time.Second)
	for {
		net.Do(src, func(ctx node.Context) {
			sensors[src].SendReading(ctx, []byte{byte(src)})
		})
		select {
		case d := <-delivered:
			if d.Origin == node.ID(src) && d.Encrypted {
				return
			}
		case <-time.After(500 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no authenticated delivery from the repaired cluster")
		}
	}
}
