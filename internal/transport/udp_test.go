package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/xrand"
)

// udpPair opens two loopback carriers wired to each other and blocks
// until both directions are verified.
func udpPair(t *testing.T) (*UDP, *UDP) {
	t.Helper()
	a, err := ListenUDP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer(1, b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(0, a.Addr().String()); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.WaitReady(5 * time.Second) }()
	go func() { errs <- b.WaitReady(5 * time.Second) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return a, b
}

func TestUDPEndpointRoundTrip(t *testing.T) {
	ca, cb := udpPair(t)

	got := make(chan string, 16)
	ea := NewEndpoint(Config{ARQ: true}, 0, xrand.New(1), ca.Send, func(int, []byte) {})
	eb := NewEndpoint(Config{ARQ: true}, 1, xrand.New(2), cb.Send,
		func(from int, p []byte) { got <- fmt.Sprintf("%d:%s", from, p) })

	// Pump each carrier's inbound frames into its endpoint from a test
	// goroutine. Real hosts do this from the node goroutine. An Endpoint
	// is not goroutine-safe, so a mutex serializes ea's Send on this
	// goroutine with its HandleRaw on the pump.
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		for in := range cb.Inbound() {
			eb.HandleRaw(in.Frame, time.Duration(time.Now().UnixNano()))
		}
		close(done)
	}()
	ackSeen := make(chan struct{})
	go func() {
		n := 0
		for in := range ca.Inbound() {
			mu.Lock()
			ea.HandleRaw(in.Frame, time.Duration(time.Now().UnixNano()))
			mu.Unlock()
			if n++; n == 3 {
				close(ackSeen)
			}
		}
	}()

	for k := 0; k < 3; k++ {
		mu.Lock()
		ea.Send(1, []byte(fmt.Sprintf("udp%d", k)), time.Duration(time.Now().UnixNano()))
		mu.Unlock()
	}
	for k := 0; k < 3; k++ {
		select {
		case m := <-got:
			if want := fmt.Sprintf("0:udp%d", k); m != want {
				t.Fatalf("delivery %d = %q, want %q", k, m, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for delivery %d", k)
		}
	}
	select {
	case <-ackSeen:
	case <-time.After(5 * time.Second):
		t.Fatal("sender never saw 3 acks")
	}

	cb.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("inbound channel not closed by Close")
	}
}

func TestUDPWaitReadyTimesOutOnDeadPeer(t *testing.T) {
	a, err := ListenUDP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// A peer that was never started: probes go nowhere.
	dead, err := ListenUDP(9, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	if err := a.AddPeer(1, deadAddr); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitReady(300 * time.Millisecond); err == nil {
		t.Fatal("WaitReady succeeded against a closed peer")
	}
}

func TestUDPCloseIdempotentAndSendAfterClose(t *testing.T) {
	a, err := ListenUDP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer(1, "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a.Send(1, []byte("after close")) // must not panic
}
