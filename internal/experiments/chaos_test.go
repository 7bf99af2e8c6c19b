package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestCrashChurnRepairsAndDelivers(t *testing.T) {
	o := Options{Seed: 19, Trials: 2, N: 300}
	res, err := CrashChurn(o, []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	clean, ok := res.Delivery.At(0)
	if !ok || clean < 0.9 {
		t.Fatalf("fault-free delivery %v, want >= 0.9", clean)
	}
	churned, ok := res.Delivery.At(0.2)
	if !ok || churned <= 0.3 {
		t.Fatalf("delivery under 20%% churn %v: self-healing should keep most readings flowing", churned)
	}
	// With a fifth of the network dead, some crashed heads must have been
	// repaired, and the measured latency must exceed the miss budget.
	repaired, ok := res.RepairedFrac.At(0.2)
	if !ok || repaired <= 0 {
		t.Fatalf("repaired fraction %v at 20%% churn, want > 0", repaired)
	}
	cfg := chaosConfig()
	budget := float64(core.KeepAliveMisses) * float64(cfg.KeepAlivePeriod) / 1e6
	if lat, ok := res.RepairLatencyMS.At(0.2); ok && lat < budget {
		t.Fatalf("mean repair latency %vms below the %vms miss budget", lat, budget)
	}
	if !strings.Contains(res.Table(), "repaired-frac") {
		t.Fatal("table malformed")
	}
}

func TestBurstLossRetriesRecoverDelivery(t *testing.T) {
	o := Options{Seed: 23, Trials: 2, N: 300}
	res, err := BurstLoss(o, []float64{0, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	cleanRetry, _ := res.DeliveryRetry.At(0)
	cleanBare, _ := res.DeliveryBare.At(0)
	if cleanRetry < 0.9 || cleanBare < 0.9 {
		t.Fatalf("loss-free deliveries retry=%v bare=%v, want >= 0.9", cleanRetry, cleanBare)
	}
	// Under heavy burst loss the retransmitting arm must not do worse
	// than fire-and-forget, and should measurably beat it.
	burstRetry, _ := res.DeliveryRetry.At(0.9)
	burstBare, _ := res.DeliveryBare.At(0.9)
	if burstRetry < burstBare {
		t.Fatalf("retries (%v) delivered less than fire-and-forget (%v) under burst loss",
			burstRetry, burstBare)
	}
	if burstBare >= 1 {
		t.Fatalf("bare delivery %v unaffected by a 0.9 bad-state burst; injector inert?", burstBare)
	}
	if !strings.Contains(res.Table(), "delivery-retry") {
		t.Fatal("table malformed")
	}
}
