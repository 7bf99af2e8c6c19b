package core

import (
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/live"
	"repro/internal/node"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// TestProtocolUnderLiveRuntime runs the full protocol — setup, beacon,
// forwarding — with one goroutine per node instead of the deterministic
// simulator, proving the behaviors are runtime-agnostic. Run with -race.
func TestProtocolUnderLiveRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time setup phases take ~1s")
	}
	const n = 60
	cfg := DefaultConfig()
	// Compress the real-time phases to keep the test quick.
	cfg.HelloMeanDelay = 10 * time.Millisecond
	cfg.ClusterPhaseEnd = 120 * time.Millisecond
	cfg.LinkSpread = 60 * time.Millisecond
	cfg.FreshWindow = time.Second // scheduling jitter is real here

	graph, err := topology.Generate(xrand.New(99), topology.Config{N: n, Density: 10})
	if err != nil {
		t.Fatal(err)
	}
	auth := AuthorityFromSeed(99, cfg.ChainLength)
	sensors := make([]*Sensor, n)
	behaviors := make([]node.Behavior, n)
	for i := 0; i < n; i++ {
		m := auth.MaterialFor(node.ID(i))
		if i == 0 {
			sensors[i] = NewBaseStation(cfg, m, auth)
		} else {
			sensors[i] = NewSensor(cfg, m)
		}
		behaviors[i] = sensors[i]
	}
	delivered := make(chan Delivery, 16)
	sensors[0].SetOnDeliver(func(d Delivery) { delivered <- d })

	net := live.Start(live.Config{Graph: graph, Seed: 99}, behaviors)
	defer net.Stop()

	// Wait for setup to complete in real time (poll through Do so we
	// read phases on each node's own goroutine).
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := make(chan int, n)
		for i := 0; i < n; i++ {
			i := i
			net.Do(i, func(node.Context) {
				if sensors[i].Phase() == PhaseOperational {
					done <- 1
				} else {
					done <- 0
				}
			})
		}
		operational := 0
		for i := 0; i < n; i++ {
			operational += <-done
		}
		if operational == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d nodes operational before deadline", operational, n)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Send readings from three nodes; all must reach the base station.
	for _, src := range []int{11, 25, 47} {
		src := src
		net.Do(src, func(ctx node.Context) {
			if _, ok := sensors[src].SendReading(ctx, []byte{byte(src)}); !ok {
				t.Errorf("node %d could not send", src)
			}
		})
	}
	got := map[node.ID]bool{}
	timeout := time.After(5 * time.Second)
	for len(got) < 3 {
		select {
		case d := <-delivered:
			got[d.Origin] = true
			if len(d.Data) != 1 || d.Data[0] != byte(d.Origin) {
				t.Fatalf("corrupted delivery %+v", d)
			}
			if !d.Encrypted {
				t.Fatal("delivery not end-to-end encrypted")
			}
		case <-timeout:
			t.Fatalf("deliveries: %v", got)
		}
	}
}

// TestKeyringUnderLiveRuntime runs key setup and a few readings with one
// goroutine per node, all acquiring and releasing keyed sealer state in
// the network's one keyring. Once the network stops, the
// ring's reference counts must match the sensors exactly and show the
// sharing. Run with -race: the shared keyed states are read from every
// node goroutine at once.
func TestKeyringUnderLiveRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time setup phases take ~1s")
	}
	const n = 60
	cfg := DefaultConfig()
	cfg.HelloMeanDelay = 10 * time.Millisecond
	cfg.ClusterPhaseEnd = 120 * time.Millisecond
	cfg.LinkSpread = 60 * time.Millisecond
	cfg.FreshWindow = time.Second

	graph, err := topology.Generate(xrand.New(31), topology.Config{N: n, Density: 10})
	if err != nil {
		t.Fatal(err)
	}
	auth := AuthorityFromSeed(31, cfg.ChainLength)
	sensors := make([]*Sensor, n)
	behaviors := make([]node.Behavior, n)
	for i := range sensors {
		m := auth.MaterialFor(node.ID(i))
		if i == 0 {
			sensors[i] = NewBaseStation(cfg, m, auth)
		} else {
			sensors[i] = NewSensor(cfg, m)
		}
		behaviors[i] = sensors[i]
	}
	net := live.Start(live.Config{Graph: graph, Seed: 31}, behaviors)
	defer net.Stop()
	ringCh := make(chan *crypt.Keyring, 1)
	net.Do(0, func(ctx node.Context) { ringCh <- ctx.Keyring() })
	ring := <-ringCh

	// Let setup run; the invariant holds at any quiescent point, so a
	// slow setup only shortens the traffic, it cannot fail the check.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		phases := make(chan Phase, n)
		for i := range sensors {
			i := i
			net.Do(i, func(node.Context) { phases <- sensors[i].Phase() })
		}
		operational := 0
		for range sensors {
			if <-phases == PhaseOperational {
				operational++
			}
		}
		if operational == n {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, src := range []int{11, 25, 47} {
		src := src
		net.Do(src, func(ctx node.Context) { sensors[src].SendReading(ctx, []byte{byte(src)}) })
	}
	time.Sleep(200 * time.Millisecond)
	net.Stop()

	if assertNodeSealersHeld(t, sensors) == 0 {
		t.Fatal("no sealers referenced")
	}
	if assertKeyringRefs(t, sensors) != ring {
		t.Fatal("sensors draw from another keyring than the network's")
	}
	if refs := countSealerRefs(sensors); ring.Len() >= refs {
		t.Fatalf("keyring holds %d states for %d node references; nothing is shared", ring.Len(), refs)
	}
}
