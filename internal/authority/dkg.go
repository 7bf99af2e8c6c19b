package authority

import (
	"fmt"
	"math/big"

	"repro/internal/crypt"
)

// Pedersen/Gennaro distributed key generation (GJKR, "Secure Distributed
// Key Generation for Discrete-Log Based Cryptosystems" — SNIPPETS.md
// snippet 1), as a pure message-driven state machine. The hosting
// replica (replica.go) owns timing: it drives the four phases against
// round deadlines and broadcasts whatever the handlers tell it to.
//
// Phases:
//
//  1. Deal: every replica i deals a random degree-(t−1) polynomial pair
//     (f_i, f'_i) — Pedersen VSS. It broadcasts commitments
//     C_ik = g^{a_ik}·h^{b_ik} and sends each j the evaluations
//     s_ij = f_i(j), s'_ij = f'_i(j) (pairwise-sealed on the wire).
//  2. Complain/justify: j verifies g^{s_ij}·h^{s'_ij} = Π_k C_ik^{j^k}
//     and complains publicly otherwise; an accused dealer justifies by
//     revealing the disputed share. Unresolved complaints (or no deal at
//     all) disqualify the dealer. Survivors form QUAL; each replica's
//     secret share is x_j = Σ_{i∈QUAL} s_ij.
//  3. Extract: each QUAL dealer reveals Feldman exponents A_ik = g^{a_ik}
//     so the public key can be computed. Replicas whose share fails
//     g^{s_ij} = Π_k A_ik^{j^k} complain by revealing their (Pedersen-
//     verified) share of that dealer.
//  4. Reconstruct: a dealer caught lying in phase 3 is NOT disqualified
//     (dropping it now is exactly the public-key bias attack GJKR fix);
//     instead its polynomial is interpolated in the open from t revealed
//     shares and its honest exponents recomputed by everyone.
//
// The result: y = Π_{i∈QUAL} A_i0 with secret key x = Σ f_i(0) shared
// t-of-n, plus per-replica verification keys pub_j = g^{x_j} used to
// attribute bad partial signatures during command signing.

// DKGConfig parameterizes one replica's DKG instance.
type DKGConfig struct {
	T, N int
	// Self is this replica's 1-based committee index (the x coordinate of
	// its share).
	Self int
	// Seed keys all of this replica's secret randomness (polynomial
	// coefficients) through the PRF, making runs reproducible.
	Seed crypt.Key
	// Session tags the instance; mixed into every derivation.
	Session uint32
}

// DKG is one replica's view of the protocol.
type DKG struct {
	cfg DKGConfig

	// Own dealing: f coefficients a[k], f' coefficients b[k].
	a, b []*big.Int

	// Per-dealer state, indexed 0..N-1 for dealer i+1.
	commits   [][]*big.Int // Pedersen rows C_i
	shareS    []*big.Int   // s_i,self as received
	shareSP   []*big.Int   // s'_i,self as received
	dealt     []bool
	badDeal   []bool         // malformed row or share that failed Pedersen check
	accused   []map[int]bool // complainers per dealer
	resolved  []map[int]bool // complaints cleared by a valid justification
	disq      []bool
	feldman   [][]*big.Int          // A rows from phase 3
	feldmanOK []bool                // own share verified against A row
	revealed  []map[int][2]*big.Int // dealer -> holder -> (s, s') revealed in phase 4

	qual []int
	x    *big.Int
	y    *big.Int
	pub  []*big.Int // pub[j-1] = g^{x_j}

	// Complaints counts public complaints witnessed (for the
	// authority_complaints_total metric, counted by the replica).
	Complaints int
}

// NewDKG builds a replica's DKG instance and derives its dealing
// polynomials.
func NewDKG(cfg DKGConfig) *DKG {
	if cfg.T < 1 || cfg.N < cfg.T || cfg.Self < 1 || cfg.Self > cfg.N {
		panic(fmt.Sprintf("authority: bad DKG config t=%d n=%d self=%d", cfg.T, cfg.N, cfg.Self))
	}
	d := &DKG{
		cfg:       cfg,
		a:         make([]*big.Int, cfg.T),
		b:         make([]*big.Int, cfg.T),
		commits:   make([][]*big.Int, cfg.N),
		shareS:    make([]*big.Int, cfg.N),
		shareSP:   make([]*big.Int, cfg.N),
		dealt:     make([]bool, cfg.N),
		badDeal:   make([]bool, cfg.N),
		accused:   make([]map[int]bool, cfg.N),
		resolved:  make([]map[int]bool, cfg.N),
		disq:      make([]bool, cfg.N),
		feldman:   make([][]*big.Int, cfg.N),
		feldmanOK: make([]bool, cfg.N),
		revealed:  make([]map[int][2]*big.Int, cfg.N),
	}
	for i := range d.accused {
		d.accused[i] = make(map[int]bool)
		d.resolved[i] = make(map[int]bool)
		d.revealed[i] = make(map[int][2]*big.Int)
	}
	for k := 0; k < cfg.T; k++ {
		d.a[k] = scalarFromPRF(cfg.Seed, []byte("dkg-f"), u32bytes(cfg.Session), u32bytes(uint32(k)))
		d.b[k] = scalarFromPRF(cfg.Seed, []byte("dkg-fp"), u32bytes(cfg.Session), u32bytes(uint32(k)))
	}
	return d
}

// evalPoly evaluates Σ coeffs[k]·x^k mod q.
func evalPoly(coeffs []*big.Int, x int) *big.Int {
	acc := new(big.Int)
	xb := big.NewInt(int64(x))
	for k := len(coeffs) - 1; k >= 0; k-- {
		acc = addQ(mulQ(acc, xb), coeffs[k])
	}
	return acc
}

// Deal returns this replica's Pedersen commitment row and the share pair
// (s_ij, s'_ij) for every committee member j (including itself at index
// Self-1). The replica broadcasts the row and seals shares pairwise.
func (d *DKG) Deal() (commitRow []*big.Int, shares [][2]*big.Int) {
	commitRow = make([]*big.Int, d.cfg.T)
	for k := 0; k < d.cfg.T; k++ {
		commitRow[k] = mulP(exp(groupG, d.a[k]), exp(groupH, d.b[k]))
	}
	shares = make([][2]*big.Int, d.cfg.N)
	for j := 1; j <= d.cfg.N; j++ {
		shares[j-1] = [2]*big.Int{evalPoly(d.a, j), evalPoly(d.b, j)}
	}
	return commitRow, shares
}

// pedersenCheck verifies g^s·h^sp == Π_k row[k]^(x^k) for holder x.
func pedersenCheck(row []*big.Int, x int, s, sp *big.Int) bool {
	lhs := mulP(exp(groupG, s), exp(groupH, sp))
	return commitEval(row, x).Cmp(lhs) == 0
}

// commitEval returns Π_k row[k]^(x^k) mod p.
func commitEval(row []*big.Int, x int) *big.Int {
	acc := big.NewInt(1)
	xk := big.NewInt(1)
	xb := big.NewInt(int64(x))
	for _, c := range row {
		acc = mulP(acc, exp(c, xk))
		xk = mulQ(xk, xb)
	}
	return acc
}

// validRow reports whether a commitment row is well-formed: exactly t
// valid group elements.
func (d *DKG) validRow(row []*big.Int) bool {
	if len(row) != d.cfg.T {
		return false
	}
	for _, c := range row {
		if !validElement(c) {
			return false
		}
	}
	return true
}

// HandleDeal processes dealer `from`'s row and this replica's share
// pair. It returns complain=true when the replica must publicly accuse
// the dealer (bad row, bad scalar range, or a share failing the
// Pedersen check). Duplicate deals from the same dealer are ignored.
func (d *DKG) HandleDeal(from int, row []*big.Int, s, sp *big.Int) (complain bool) {
	i := from - 1
	if i < 0 || i >= d.cfg.N || d.dealt[i] {
		return false
	}
	d.dealt[i] = true
	if !d.validRow(row) || !validScalar(s) || !validScalar(sp) {
		d.badDeal[i] = true
		return true
	}
	d.commits[i] = row
	if !pedersenCheck(row, d.cfg.Self, s, sp) {
		d.badDeal[i] = true
		return true
	}
	d.shareS[i] = s
	d.shareSP[i] = sp
	return false
}

func validScalar(s *big.Int) bool {
	return s != nil && s.Sign() >= 0 && s.Cmp(groupQ) < 0
}

// MissingDeals returns the dealers (1-based) from whom no deal arrived;
// the replica accuses them at the deal deadline.
func (d *DKG) MissingDeals() []int {
	var out []int
	for i := 0; i < d.cfg.N; i++ {
		if !d.dealt[i] {
			out = append(out, i+1)
		}
	}
	return out
}

// HandleComplaint records a public complaint by `complainer` against
// `accused`. It returns justify=true when the accused is this replica,
// which must answer by revealing the complainer's share pair
// (JustifyFor).
func (d *DKG) HandleComplaint(accused, complainer int) (justify bool) {
	i := accused - 1
	if i < 0 || i >= d.cfg.N || complainer < 1 || complainer > d.cfg.N {
		return false
	}
	if !d.accused[i][complainer] {
		d.accused[i][complainer] = true
		d.Complaints++
	}
	return accused == d.cfg.Self
}

// JustifyFor returns the share pair this replica originally dealt to
// `complainer`, to be broadcast as the public justification.
func (d *DKG) JustifyFor(complainer int) (s, sp *big.Int) {
	return evalPoly(d.a, complainer), evalPoly(d.b, complainer)
}

// HandleJustify processes dealer `accused`'s public answer to
// `complainer`: the revealed pair clears the complaint iff it passes the
// Pedersen check against the dealer's own commitments. A complainer
// whose complaint is answered validly adopts the now-public share.
func (d *DKG) HandleJustify(accused, complainer int, s, sp *big.Int) {
	i := accused - 1
	if i < 0 || i >= d.cfg.N || d.commits[i] == nil || !validScalar(s) || !validScalar(sp) {
		return
	}
	if !d.accused[i][complainer] {
		return // justification for a complaint nobody made
	}
	if !pedersenCheck(d.commits[i], complainer, s, sp) {
		return // failed justification stays an open complaint
	}
	d.resolved[i][complainer] = true
	if complainer == d.cfg.Self && d.shareS[i] == nil {
		d.shareS[i], d.shareSP[i] = s, sp
		d.badDeal[i] = false
	}
}

// FinishSharing closes phase 2 at the replica's deadline: dealers that
// never dealt, dealt malformed rows, or left any complaint unresolved
// are disqualified; the rest form QUAL and the replica's secret share is
// fixed. It returns the QUAL set (1-based, ascending — identical at
// every honest replica because it is a pure function of the broadcast
// transcript).
func (d *DKG) FinishSharing() []int {
	d.qual = d.qual[:0]
	for i := 0; i < d.cfg.N; i++ {
		bad := !d.dealt[i] || d.commits[i] == nil
		if !bad {
			for complainer := range d.accused[i] {
				if !d.resolved[i][complainer] {
					bad = true
					break
				}
			}
		}
		// A replica that itself holds no valid share of dealer i after
		// justifications treats i as disqualified too; with synchronous
		// rounds this matches the transcript rule above.
		if !bad && d.shareS[i] == nil {
			bad = true
		}
		d.disq[i] = bad
		if !bad {
			d.qual = append(d.qual, i+1)
		}
	}
	d.x = new(big.Int)
	for _, i := range d.qual {
		d.x = addQ(d.x, d.shareS[i-1])
	}
	return append([]int(nil), d.qual...)
}

// QUAL returns the qualified dealer set fixed by FinishSharing.
func (d *DKG) QUAL() []int { return append([]int(nil), d.qual...) }

// Extract returns this replica's Feldman row A_k = g^{a_k} for phase 3.
func (d *DKG) Extract() []*big.Int {
	row := make([]*big.Int, d.cfg.T)
	for k := 0; k < d.cfg.T; k++ {
		row[k] = exp(groupG, d.a[k])
	}
	return row
}

// HandleExtract processes dealer `from`'s Feldman row. It returns
// complain=true when this replica's share contradicts the row — the
// replica must then broadcast its revealed share of that dealer
// (RevealFor) so the honest polynomial can be reconstructed.
func (d *DKG) HandleExtract(from int, row []*big.Int) (complain bool) {
	i := from - 1
	if i < 0 || i >= d.cfg.N || d.disq[i] || d.feldman[i] != nil {
		return false
	}
	if !d.validRow(row) {
		// Treat a malformed row like a lying one: keep nothing; the
		// reconstruction path will recover the polynomial.
		return true
	}
	d.feldman[i] = row
	if commitEval(row, d.cfg.Self).Cmp(exp(groupG, d.shareS[i])) != 0 {
		return true
	}
	d.feldmanOK[i] = true
	return false
}

// RevealFor returns this replica's share pair of dealer `accused` for an
// extraction complaint (public reveal — phase 4 sacrifices the secrecy
// of individual shares of a cheating dealer, never of the sum).
func (d *DKG) RevealFor(accused int) (s, sp *big.Int) {
	i := accused - 1
	if i < 0 || i >= d.cfg.N || d.shareS[i] == nil {
		return nil, nil
	}
	return d.shareS[i], d.shareSP[i]
}

// HandleReveal processes holder `holder`'s revealed share of dealer
// `accused` during phase 4. Only Pedersen-consistent reveals count; the
// replica also contributes its own share of the accused dealer to the
// pool the first time it witnesses a reveal.
func (d *DKG) HandleReveal(accused, holder int, s, sp *big.Int) {
	i := accused - 1
	if i < 0 || i >= d.cfg.N || d.disq[i] || d.commits[i] == nil {
		return
	}
	if holder < 1 || holder > d.cfg.N || !validScalar(s) || !validScalar(sp) {
		return
	}
	if !pedersenCheck(d.commits[i], holder, s, sp) {
		return
	}
	d.revealed[i][holder] = [2]*big.Int{s, sp}
	if d.shareS[i] != nil {
		d.revealed[i][d.cfg.Self] = [2]*big.Int{d.shareS[i], d.shareSP[i]}
	}
}

// polyInterpolate returns the degree-(len(xs)−1) polynomial coefficients
// (mod q) through the points (xs[i], ys[i]): Σ_i ys[i]·l_i(X) with the
// Lagrange basis expanded into coefficient form.
func polyInterpolate(xs []int, ys []*big.Int) []*big.Int {
	coeffs := make([]*big.Int, len(xs))
	for k := range coeffs {
		coeffs[k] = new(big.Int)
	}
	for i := range xs {
		// basis l_i(X) = Π_{m≠i} (X − x_m) / (x_i − x_m): build the
		// numerator polynomial iteratively, then scale.
		basis := []*big.Int{big.NewInt(1)}
		denom := big.NewInt(1)
		xi := big.NewInt(int64(xs[i]))
		for m := range xs {
			if m == i {
				continue
			}
			xm := big.NewInt(int64(xs[m]))
			// multiply basis by (X − x_m)
			next := make([]*big.Int, len(basis)+1)
			for k := range next {
				next[k] = new(big.Int)
			}
			for k, c := range basis {
				next[k+1] = addQ(next[k+1], c)
				next[k] = subQ(next[k], mulQ(c, xm))
			}
			basis = next
			denom = mulQ(denom, subQ(xi, xm))
		}
		scale := mulQ(ys[i], invQ(denom))
		for k, c := range basis {
			coeffs[k] = addQ(coeffs[k], mulQ(c, scale))
		}
	}
	return coeffs
}

// FinishDKG closes the protocol at the extraction deadline. For every
// QUAL dealer whose Feldman row was contradicted (or missing), the
// honest row is recomputed from ≥t revealed shares; with fewer than t
// reveals the protocol fails (cannot happen with ≤ n−t corrupt replicas
// in a synchronous run). On success the public key, this replica's
// share, and all per-replica verification keys are fixed.
func (d *DKG) FinishDKG() error {
	for _, qi := range d.qual {
		i := qi - 1
		if d.feldmanOK[i] {
			continue
		}
		if len(d.revealed[i]) == 0 && d.feldman[i] != nil {
			// Row arrived and nobody could refute it; accept. (Own check
			// passed iff feldmanOK — reaching here with no reveals means
			// our own share matched but another holder complained and
			// never revealed: keep the row.)
			if commitEval(d.feldman[i], d.cfg.Self).Cmp(exp(groupG, d.shareS[i])) == 0 {
				d.feldmanOK[i] = true
				continue
			}
		}
		// Reconstruct dealer i's polynomial from revealed shares.
		if d.shareS[i] != nil {
			d.revealed[i][d.cfg.Self] = [2]*big.Int{d.shareS[i], d.shareSP[i]}
		}
		if len(d.revealed[i]) < d.cfg.T {
			return fmt.Errorf("authority: dkg cannot reconstruct dealer %d: %d of %d shares revealed",
				qi, len(d.revealed[i]), d.cfg.T)
		}
		xs := make([]int, 0, len(d.revealed[i]))
		for holder := range d.revealed[i] {
			xs = append(xs, holder)
		}
		sortInts(xs)
		xs = xs[:d.cfg.T]
		ys := make([]*big.Int, len(xs))
		for k, holder := range xs {
			ys[k] = d.revealed[i][holder][0]
		}
		coeffs := polyInterpolate(xs, ys)
		row := make([]*big.Int, d.cfg.T)
		for k := range row {
			row[k] = exp(groupG, coeffs[k])
		}
		d.feldman[i] = row
		d.feldmanOK[i] = true
	}
	d.y = big.NewInt(1)
	for _, qi := range d.qual {
		d.y = mulP(d.y, d.feldman[qi-1][0])
	}
	d.pub = make([]*big.Int, d.cfg.N)
	for j := 1; j <= d.cfg.N; j++ {
		acc := big.NewInt(1)
		for _, qi := range d.qual {
			acc = mulP(acc, commitEval(d.feldman[qi-1], j))
		}
		d.pub[j-1] = acc
	}
	return nil
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Result bundles what a completed DKG leaves behind on one replica.
type Result struct {
	// T, N and Self mirror the config; Self is the share's x coordinate.
	T, N, Self int
	// QUAL is the qualified dealer set (identical across replicas).
	QUAL []int
	// X is this replica's secret share x_self = Σ_{i∈QUAL} f_i(self).
	X *big.Int
	// Y is the authority public key g^x.
	Y *big.Int
	// Pub[j-1] = g^{x_j} verifies replica j's partial signatures.
	Pub []*big.Int
	// NonceSeed keys deterministic signing nonces (never reused across
	// distinct messages; see command.go).
	NonceSeed crypt.Key
}

// Result returns the completed DKG's output (call after FinishDKG).
func (d *DKG) Result() *Result {
	return &Result{
		T:         d.cfg.T,
		N:         d.cfg.N,
		Self:      d.cfg.Self,
		QUAL:      d.QUAL(),
		X:         d.x,
		Y:         d.y,
		Pub:       append([]*big.Int(nil), d.pub...),
		NonceSeed: crypt.DeriveKey(d.cfg.Seed, crypt.LabelNode, []byte("authority-nonce"), u32bytes(d.cfg.Session)),
	}
}
