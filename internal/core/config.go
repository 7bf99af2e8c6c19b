package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// RefreshMode selects how periodic key refresh rotates cluster keys.
type RefreshMode int

const (
	// RefreshHash applies Kc' = F(Kc) locally on every node, with no
	// radio traffic — the variant the paper ultimately recommends
	// ("a better way, however, which makes this kind of attack useless,
	// is to refresh the keys by hashing"). Relies on loosely agreed
	// epochs, which the shared RefreshPeriod provides.
	RefreshHash RefreshMode = iota
	// RefreshRekey has each original clusterhead generate a fresh key
	// and distribute it under the old one, constrained within clusters.
	//
	// CAVEAT (an interaction the paper does not address): re-keyed
	// cluster keys are no longer derivable from KMC, so Section IV-E
	// node addition stops working for re-keyed clusters — a late node
	// can only verify JOIN-RESPs against F(KMC, CID) hash-forwarded by
	// the epoch, which holds for RefreshHash but not for fresh random
	// keys. TestRekeyRefreshBreaksLateJoin documents the failure mode;
	// deployments that need late addition should use RefreshHash.
	RefreshRekey
)

// String returns the mode name.
func (m RefreshMode) String() string {
	switch m {
	case RefreshHash:
		return "hash"
	case RefreshRekey:
		return "rekey"
	default:
		return "unknown"
	}
}

// KeepAliveMisses is how many silent keep-alive periods a member
// tolerates before it starts a repair election (or, with
// HandoffEnabled, a handoff): detection takes KeepAliveMisses ×
// KeepAlivePeriod.
const KeepAliveMisses = 3

// Fixed protocol parameters. No deployment tunes them; each is the
// value every experiment and the paper-shape calibration ran with.
const (
	// counterWindow is how far ahead of the last verified value the base
	// station accepts a source's Step-1 counter, so lost readings do not
	// desynchronize a source.
	counterWindow = 64
	// dedupCapacity is how many distinct (origin, sequence) pairs each
	// node's duplicate-suppression set remembers.
	dedupCapacity = 1024
	// maxChainSkip is how many consecutive missed revocation commands a
	// node's chain verifier tolerates (Section IV-D).
	maxChainSkip = 8
	// joinRespDelayMax spreads neighbors' JOIN-RESP replies uniformly
	// over this window so a joining node does not face a reply burst.
	joinRespDelayMax = 50 * time.Millisecond
	// joinWindow is how long a late-deployed node collects JOIN-RESP
	// messages before it fixes its cluster membership and erases KMC.
	joinWindow = 500 * time.Millisecond
	// repairMeanDelay is the mean of the exponential candidacy delay in
	// repair elections, mirroring the setup election's HELLO delays.
	repairMeanDelay = 50 * time.Millisecond
	// setupRetryBase is the first setup retry's backoff; each further
	// retry doubles it, plus a uniform jitter of up to one base so
	// simultaneous senders do not retry in lockstep.
	setupRetryBase = 30 * time.Millisecond
	// dataRetryBase is the first ack-gated data retry's backoff, doubled
	// per retry with the same jitter.
	dataRetryBase = 40 * time.Millisecond
)

// Config holds the protocol's tunable parameters. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// HelloMeanDelay is the mean of the exponential distribution from
	// which each node draws its clusterhead-announcement delay
	// (Section IV-B.1). Smaller means faster setup but more singleton
	// clusters; the paper notes singletons "can be minimized by the right
	// exponential distribution of the time delays".
	HelloMeanDelay time.Duration

	// ClusterPhaseEnd (T1) is when the election phase closes and the
	// link-establishment phase begins. Any node still undecided at T1
	// becomes a singleton clusterhead without transmitting a HELLO —
	// nobody is left clusterless.
	ClusterPhaseEnd time.Duration

	// LinkSpread is the window after T1 over which nodes spread their
	// LINK-ADVERT broadcasts uniformly, to model desynchronized MACs.
	LinkSpread time.Duration

	// OperationalAt (T2) is when nodes erase Km and enter the operational
	// phase, and when the base station floods its first routing beacon.
	// If zero it defaults to ClusterPhaseEnd + LinkSpread + 50ms.
	OperationalAt time.Duration

	// DisableStep1 turns off the optional end-to-end encryption of
	// readings for the base station (Section IV-C Step 1). Enable it for
	// data-fusion deployments where intermediate nodes must "peak" at the
	// data (Section II: Intermediate Node Accessibility of Data). The
	// zero value keeps Step 1 on, the paper's confidentiality default.
	DisableStep1 bool

	// FreshWindow is the maximum acceptable age |now - τ| of a hop-by-hop
	// envelope. Each forwarder restamps τ, so the window only needs to
	// cover one hop's delivery latency plus clock skew.
	FreshWindow time.Duration

	// SkewTolerance is how far *negative* an envelope's age may read
	// before the freshness check rejects it as from-the-future. Inside
	// one simulation every node shares the virtual clock, so the zero
	// default (no tolerance) is exact; multi-process live deployments
	// have genuinely skewed per-process clocks and must budget for them
	// here, as any real WSN with imperfect time sync would.
	SkewTolerance time.Duration

	// FloodForwarding disables the hop-gradient forwarding rule: every
	// node relays every authenticated, fresh, unseen data message
	// regardless of direction. Maximally robust and maximally expensive;
	// the routing-ablation experiment quantifies the gradient's savings.
	FloodForwarding bool

	// BeaconPeriod, if nonzero, re-floods the routing beacon periodically
	// so late joiners and survivors of topology change acquire gradients.
	BeaconPeriod time.Duration

	// RefreshPeriod, if nonzero, schedules automatic key refresh every
	// period after the operational transition — the paper's "sensor
	// nodes can repeat the key setup phase with a predefined period ...
	// the refreshing period can be as short as needed to keep the
	// network safe."
	RefreshPeriod time.Duration
	// RefreshMode selects the periodic refresh variant.
	RefreshMode RefreshMode

	// ChainLength is the number of revocation commands the base station's
	// hash chain supports.
	ChainLength int

	// --- robustness / self-healing knobs. All default to zero (off), so
	// a config that doesn't set them runs the exact baseline protocol:
	// no extra timers, no extra broadcasts, no extra random draws. ---

	// KeepAlivePeriod, if nonzero, makes the current clusterhead
	// broadcast an authenticated KEEPALIVE every period and members
	// monitor it. After KeepAliveMisses consecutive silent periods a
	// member starts a local repair election under the current cluster
	// key — no Km needed, honoring the paper's "within clusters"
	// constraint on post-setup reorganization.
	KeepAlivePeriod time.Duration

	// SetupRetries, if nonzero, bounds retransmissions with exponential
	// backoff for the lossy setup-phase broadcasts: HELLO while the
	// election window is open, LINK-ADVERT while Km is still held, and
	// an exponentially growing window for late-join attempts.
	SetupRetries int

	// BatchSize caps how many readings one DATA frame carries
	// (docs/THROUGHPUT.md). A node queues originated and relayed
	// readings and flushes up to BatchSize of them under a single
	// cluster-key seal, amortizing the outer MAC and frame header. Each
	// reading's Step-1 inner envelope stays independently sealed under
	// its origin's node key, so per-origin authenticity and base-station
	// dedup are unchanged. 0 or 1 send every reading in its own frame at
	// once, with no flush timer.
	BatchSize int
	// BatchFlushDelay bounds how long a queued reading may wait for the
	// batch to fill before a deadline flush. Defaults to 20ms when
	// BatchSize > 1; at BatchSize <= 1 the queue flushes at once and
	// the delay is unused.
	BatchFlushDelay time.Duration

	// HandoffEnabled lets a mobile node — one provisioned with both Km
	// and KMC via Authority.MobileMaterialFor — that lost its
	// clusterhead's keep-alives leave its cluster, erasing the old
	// cluster key and every neighbor key its old position justified, and
	// re-join whatever clusters surround its new position through the
	// Section IV-E addition path using the retained KMC. Keep-alive
	// silence is the departure trigger, so KeepAlivePeriod must be set;
	// Validate enforces that. Static nodes and deployments that leave
	// this off run the exact baseline protocol. See docs/MOBILITY.md.
	HandoffEnabled bool

	// RekeyOnRepair makes a repair-election winner immediately re-key
	// its cluster (StartClusterRefresh) after claiming headship, so key
	// copies carried off by departed members — a handoff that raced the
	// election, or a captured straggler — stop authenticating. The
	// abandoned cluster's exposure is thereby bounded by the repair
	// machinery the cluster already runs. Inherits the RefreshRekey
	// caveat: a re-keyed cluster stops accepting Section IV-E late
	// joins, because its key is no longer derivable from KMC.
	RekeyOnRepair bool

	// DataRetries, if nonzero, enables ack-gated forwarding: a sender
	// keeps a transmitted reading pending until it overhears a
	// lower-hop relay of the same (origin, seq) — or the base station's
	// hop-0 delivery echo — and retransmits with exponential backoff up
	// to this many times before giving up and raising the node's
	// degraded flag.
	DataRetries int

	// Obs, if non-nil, attaches the observability subsystem: protocol
	// counters and milestone events (election, repair, retransmission,
	// Km erasure, degraded delivery) labeled with the scope's run/trial.
	// Instrumentation never draws randomness or branches on protocol
	// state, so enabling it cannot change a run's outputs; a nil scope
	// costs one nil check per hook.
	Obs *obs.Scope
}

// DefaultConfig returns the parameters used throughout the experiments.
// Time constants assume the simulator's ~1ms hop latency; under the live
// runtime they are real durations and remain comfortable.
//
// HelloMeanDelay is the paper's main free parameter ("this possibility
// can be minimized by the right exponential distribution of the time
// delays"), and it trades cluster granularity against election
// collisions: shorter mean delays cause more simultaneous elections,
// hence more clusterheads and more singleton clusters. The default (50x
// the ~1ms hop latency) is calibrated so the whole Figure 7/8 shape
// matches the paper — clusterhead fraction ~0.21 at density 8 falling to
// ~0.10 at density 20, mean cluster size ~5 rising to ~10 — while
// preserving Figure 1's trend of singleton clusters becoming rarer as
// density grows (see EXPERIMENTS.md for the calibration data).
func DefaultConfig() Config {
	return Config{
		HelloMeanDelay:  50 * time.Millisecond,
		ClusterPhaseEnd: 500 * time.Millisecond,
		LinkSpread:      100 * time.Millisecond,
		OperationalAt:   0, // derived
		DisableStep1:    false,
		FreshWindow:     250 * time.Millisecond,
		BeaconPeriod:    0,
		ChainLength:     128,
	}
}

// Validate rejects configurations a deployment file typo can produce
// but that cannot mean anything at runtime. It must run on the raw
// config, before withDefaults: several duration knobs treat <= 0 as
// "unset" and would silently replace a negative value with the default,
// turning a typo into a surprising-but-running deployment. Deploy (and
// the fleet daemon's deployment path) call it first.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    time.Duration
	}{
		{"HelloMeanDelay", c.HelloMeanDelay},
		{"ClusterPhaseEnd", c.ClusterPhaseEnd},
		{"LinkSpread", c.LinkSpread},
		{"OperationalAt", c.OperationalAt},
		{"FreshWindow", c.FreshWindow},
		{"SkewTolerance", c.SkewTolerance},
		{"BeaconPeriod", c.BeaconPeriod},
		{"RefreshPeriod", c.RefreshPeriod},
		{"KeepAlivePeriod", c.KeepAlivePeriod},
		{"BatchFlushDelay", c.BatchFlushDelay},
	} {
		if f.v < 0 {
			return fmt.Errorf("core: %s must not be negative, got %v", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"ChainLength", c.ChainLength},
		{"SetupRetries", c.SetupRetries},
		{"BatchSize", c.BatchSize},
		{"DataRetries", c.DataRetries},
	} {
		if f.v < 0 {
			return fmt.Errorf("core: %s must not be negative, got %d", f.name, f.v)
		}
	}
	if c.HandoffEnabled && c.KeepAlivePeriod <= 0 {
		return fmt.Errorf("core: HandoffEnabled requires KeepAlivePeriod > 0 (keep-alive silence is the departure trigger)")
	}
	return nil
}

// withDefaults fills derived and missing fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.HelloMeanDelay <= 0 {
		c.HelloMeanDelay = d.HelloMeanDelay
	}
	if c.ClusterPhaseEnd <= 0 {
		c.ClusterPhaseEnd = d.ClusterPhaseEnd
	}
	if c.LinkSpread <= 0 {
		c.LinkSpread = d.LinkSpread
	}
	if c.OperationalAt <= 0 {
		c.OperationalAt = c.ClusterPhaseEnd + c.LinkSpread + 50*time.Millisecond
	}
	if c.FreshWindow <= 0 {
		c.FreshWindow = d.FreshWindow
	}
	if c.ChainLength <= 0 {
		c.ChainLength = d.ChainLength
	}
	if c.BatchSize > 1 && c.BatchFlushDelay <= 0 {
		c.BatchFlushDelay = 20 * time.Millisecond
	}
	return c
}
