// Package byz is the Byzantine-sensing defense layer (DESIGN.md §15):
// it hardens the FTTT matcher against adversarial nodes — spoofed RSS,
// inverted pair reports, colluding sets steering the estimate toward a
// decoy — with three cooperating mechanisms:
//
//   - Online per-node trust. Each round, every non-star pair of the
//     sampling vector is compared against the matched face's signature;
//     a pair whose observed relation strictly contradicts the signature
//     (opposite signs — not the one-sided zeros the benign flip model of
//     Def. 8 produces) charges an inversion to both of its nodes. A
//     per-node exponential moving average of the inversion rate, floored
//     by the Sec. 5.1 capture-escape probability (1/2)^(k−1) that benign
//     sensing is entitled to, becomes the node's distrust evidence; node
//     trust is 1 − evidence.
//
//   - Suspect detection with hysteresis. A node whose evidence exceeds
//     SuspectAbove after MinRounds rounds is flagged suspect (counted on
//     fttt_byz_suspects_total) and stays suspect until its evidence
//     decays below ClearBelow — a recovered or re-calibrated node earns
//     its way back.
//
//   - Quorum voting over redundant pair observations. The ternary pair
//     relation is a total order, so witnesses compose transitively: node
//     m vouches for pair (i,j) when sign(v[i,m]) == sign(v[m,j]) ≠ 0.
//     Every pair involving a suspect is re-decided by the non-suspect
//     witnesses, and — crucially — a composition link that itself
//     involves a suspect is read from the previous matched signature,
//     never from the suspect's current report (an attacker must not be
//     able to corroborate its own lies; the prior signature is the same
//     temporal-redundancy basis eq. 6 fault filling already trusts). A
//     winning sign holding at least QuorumThreshold of the vote weight
//     (with at least MinQuorum total weight) replaces the direct
//     observation (fttt_byz_votes_overridden_total counts actual flips);
//     a pair with no quorum is starred out, feeding the tracker's
//     existing star-fraction degradation policy (DESIGN.md §9) — the
//     degraded-round integration when quorum fails.
//
// The defense is deterministic and draw-free: it consumes no randomness,
// and while every node holds full trust it neither rewrites the sampling
// vector nor emits trust weights — the matcher runs its unmodified path,
// which is why a defended tracker under a fully honest fleet is
// byte-identical to a vanilla one (the §8/§15 determinism contract,
// pinned by the golden differential tests).
package byz

import (
	"fmt"
	"math"

	"fttt/internal/obs"
	"fttt/internal/sampling"
	"fttt/internal/vector"
)

// Config parameterises the defense. The zero value of every field
// selects the documented default; Enabled gates the whole layer so a
// *Config can ride in core.Config with nil-is-off semantics.
type Config struct {
	// Enabled arms the defense.
	Enabled bool
	// QuorumThreshold is the fraction of the total witness weight the
	// winning sign must hold for a vote to stand; 0 selects 2/3 (the
	// classical Byzantine supermajority).
	QuorumThreshold float64
	// MinQuorum is the minimum total witness weight for a vote to stand
	// at all; 0 selects 3 witnesses' worth.
	MinQuorum float64
	// SuspectAbove is the inversion-evidence level that flags a node
	// suspect; 0 selects 0.2 (benign excess is ~0 once the (1/2)^(k−1)
	// floor is discounted, so the margin is wide despite the low bar).
	SuspectAbove float64
	// ClearBelow is the hysteresis level that clears a suspect, and the
	// watch level that engages graduated weighting; 0 selects
	// SuspectAbove/4 — low, because the weighting ramp must engage while
	// evidence is still accruing (see Apply), and redemption is meant to
	// be slow.
	ClearBelow float64
	// LearnRate is the evidence EMA step when evidence is rising; 0
	// selects 0.25.
	LearnRate float64
	// DecayRate is the EMA step when evidence is falling. Adversarial
	// contradictions are episodic — a colluder only betrays the pair
	// order while the target is in the geometric window where its lie
	// flips a relation — so evidence must outlive the episode: rise
	// fast, decay slow. 0 selects LearnRate/5.
	DecayRate float64
	// MinRounds is how many observed rounds must pass before any node can
	// be flagged; 0 selects 3.
	MinRounds int
	// TrustFloor is the minimum pair weight a suspect-involved pair keeps
	// in the reweighted similarity sum, so heavily distrusted pairs still
	// cannot flip a match by vanishing entirely; 0 selects 0.05.
	TrustFloor float64
}

// withDefaults resolves the zero-value fields.
func (c Config) withDefaults() Config {
	if c.QuorumThreshold == 0 {
		c.QuorumThreshold = 2.0 / 3
	}
	if c.MinQuorum == 0 {
		c.MinQuorum = 3
	}
	if c.SuspectAbove == 0 {
		c.SuspectAbove = 0.2
	}
	if c.ClearBelow == 0 {
		c.ClearBelow = c.SuspectAbove / 4
	}
	if c.LearnRate == 0 {
		c.LearnRate = 0.25
	}
	if c.DecayRate == 0 {
		c.DecayRate = c.LearnRate / 5
	}
	if c.MinRounds == 0 {
		c.MinRounds = 3
	}
	if c.TrustFloor == 0 {
		c.TrustFloor = 0.05
	}
	return c
}

// Validate reports configuration errors (on the resolved defaults, so a
// zero Config is always valid).
func (c Config) Validate() error {
	r := c.withDefaults()
	if r.QuorumThreshold <= 0.5 || r.QuorumThreshold > 1 {
		return fmt.Errorf("byz: quorum threshold %v outside (0.5, 1]", r.QuorumThreshold)
	}
	if r.MinQuorum < 1 {
		return fmt.Errorf("byz: min quorum %v < 1", r.MinQuorum)
	}
	if r.SuspectAbove <= 0 || r.SuspectAbove >= 1 {
		return fmt.Errorf("byz: suspect threshold %v outside (0, 1)", r.SuspectAbove)
	}
	if r.ClearBelow < 0 || r.ClearBelow >= r.SuspectAbove {
		return fmt.Errorf("byz: clear threshold %v not in [0, suspect=%v)", r.ClearBelow, r.SuspectAbove)
	}
	if r.LearnRate <= 0 || r.LearnRate > 1 {
		return fmt.Errorf("byz: learn rate %v outside (0, 1]", r.LearnRate)
	}
	if r.DecayRate <= 0 || r.DecayRate > r.LearnRate {
		return fmt.Errorf("byz: decay rate %v outside (0, learn=%v]", r.DecayRate, r.LearnRate)
	}
	if r.TrustFloor < 0 || r.TrustFloor > 1 {
		return fmt.Errorf("byz: trust floor %v outside [0, 1]", r.TrustFloor)
	}
	return nil
}

// Defense is one tracker's defense state. Like the Tracker that owns it,
// a Defense is single-goroutine; every target (and every per-trace
// tracker clone) builds its own from the shared Config, so defended runs
// stay deterministic across worker counts.
type Defense struct {
	cfg Config
	n   int
	// benignFloor is the Sec. 5.1 capture-escape probability
	// (1/2)^(k−1): the inversion-rate allowance benign sensing gets
	// before charging evidence.
	benignFloor float64

	// evid[i] is node i's inversion-rate EMA in [0, 1]; suspect[i] the
	// hysteresis-latched flag; rounds the observed-round count.
	evid    []float64
	suspect []bool
	rounds  int
	// numSuspects caches the current flag count so Apply's fast path is
	// one comparison.
	numSuspects int
	// alert arms Apply's weighting phase: it is raised the moment any
	// node's evidence crosses ClearBelow (the watch level) and lowered
	// when every node has decayed back under it. Graduated weighting
	// before any suspect is confirmed breaks the attacker's feedback
	// loop: a successful lie drags the match, and a dragged signature
	// agrees with the lie — hiding the evidence. Downweighting on first
	// suspicion re-anchors the match to honest pairs, which straightens
	// the signature, which lets the evidence keep climbing.
	alert bool

	// orig snapshots the sampling vector before Apply's corrections, so
	// Observe learns from what the nodes actually reported.
	orig      vector.Vector
	origValid bool
	// lastSig is the previous round's matched signature — the trusted
	// side of every witness-composition link that involves a suspect.
	// Observe refreshes it only when it leaves the defense on alert, the
	// one state in which the next Apply reads it.
	lastSig vector.Vector
	// weights is the pair-trust scratch returned by Apply.
	weights []float64
	// counts are the per-round per-node residual counters, packed so one
	// add updates both (see Observe's pair loop): informative pairs in
	// the low 32 bits, inversions in the high 32. rates is the per-round
	// rate scratch for the fleet-median baseline; hadExcess remembers
	// which nodes showed positive excess last round (the corroboration
	// gate — see Observe).
	counts    []uint64
	rates     []float64
	hadExcess []bool

	// Range-plausibility gate (SetRangeGate). Def. 2 admits a report only
	// when the node's true distance is within the sensing range, so no
	// honest report's claimed mean RSS can sit far below the range-edge
	// level — and Def. 3's rapid instants exist because real RSS carries
	// fast fading, so no honest report's within-round spread can collapse
	// toward zero. A report violating both at once is physically
	// inconsistent with the sensing model (a synthesized value, not a
	// measurement) and charges evidence directly, independent of the
	// matched signature — the channel that catches a far-decoy colluder
	// whose "I am distant" lie the dragged signature would otherwise
	// ratify. implausible[i] is this round's per-node flag.
	gateArmed   bool
	rssFloor    float64
	spreadMin   float64
	implausible []bool
	// reported mirrors the group's Reported set (valid when repValid):
	// evidence must freeze for silent nodes, or the eq. 6 fault filling —
	// which copies the previous signature and therefore always agrees
	// with it — would let an absent attacker quietly decay its way back
	// to a clean record between its geometric attack windows.
	reported []bool
	repValid bool

	implausibleTotal *obs.Counter

	// Metrics (nil-is-off, resolved once like core's tracker metrics).
	suspectsTotal   *obs.Counter
	votesOverridden *obs.Counter
	trustGauge      []*obs.Gauge
}

// New builds a Defense for n nodes sampling k instants per grouping.
// reg, when non-nil, receives the detector's metrics: the
// fttt_byz_suspects_total and fttt_byz_votes_overridden_total counters
// and one fttt_byz_node_trust{node="i"} gauge per node (initialised to
// full trust).
func New(cfg Config, n, k int, reg *obs.Registry) *Defense {
	d := &Defense{
		cfg:         cfg.withDefaults(),
		n:           n,
		benignFloor: math.Pow(0.5, float64(k-1)),
		evid:        make([]float64, n),
		suspect:     make([]bool, n),
		counts:      make([]uint64, n),
		implausible: make([]bool, n),
		reported:    make([]bool, n),
		hadExcess:   make([]bool, n),
	}
	if k <= 1 {
		d.benignFloor = 1 // a single instant cannot certify any flip
	}
	if reg != nil {
		d.suspectsTotal = reg.Counter("fttt_byz_suspects_total")
		d.votesOverridden = reg.Counter("fttt_byz_votes_overridden_total")
		d.implausibleTotal = reg.Counter("fttt_byz_implausible_reports_total")
		d.trustGauge = make([]*obs.Gauge, n)
		for i := range d.trustGauge {
			g := reg.Gauge(fmt.Sprintf("fttt_byz_node_trust{node=\"%d\"}", i))
			g.Set(1)
			d.trustGauge[i] = g
		}
	}
	return d
}

// NodeTrust returns node i's current trust in [0, 1] (1 − evidence).
func (d *Defense) NodeTrust(i int) float64 {
	t := 1 - d.evid[i]
	if t < 0 {
		return 0
	}
	return t
}

// Suspects returns the currently flagged node IDs in ascending order.
func (d *Defense) Suspects() []int {
	var out []int
	for i, s := range d.suspect {
		if s {
			out = append(out, i)
		}
	}
	return out
}

// SetRangeGate arms the range-plausibility evidence channel (see the
// gateArmed field docs). floorRSS is the lowest claimed k-instant mean a
// report may carry before it asserts an out-of-range target (the owner
// derives it from the RF model's range-edge level minus a noise margin);
// minSpread is the within-round sample deviation below which the report
// lacks the fast-fading signature every physical measurement carries. A
// non-positive minSpread disarms the gate (a noiseless model has no
// spread floor to test against).
func (d *Defense) SetRangeGate(floorRSS, minSpread float64) {
	d.rssFloor, d.spreadMin = floorRSS, minSpread
	d.gateArmed = minSpread > 0
}

// ObserveGroup runs the range-plausibility gate over one round's raw
// grouping sampling, flagging reports whose claimed mean asserts an
// out-of-range distance with an impossibly clean (fading-free) signal.
// Call it before Apply each round; the next Observe folds the flags into
// the evidence EMA. Draw-free and deterministic, like the rest of the
// defense; a no-op while the gate is disarmed, so trackers that never
// arm it keep byte-identical behavior.
func (d *Defense) ObserveGroup(g *sampling.Group) {
	d.repValid = false
	for i := range d.implausible {
		d.implausible[i] = false
	}
	if g == nil || g.N() != d.n {
		return
	}
	copy(d.reported, g.Reported)
	d.repValid = true
	if !d.gateArmed || g.K() < 2 {
		return
	}
	k := float64(g.K())
	for i, rep := range g.Reported {
		if !rep {
			continue
		}
		var sum float64
		for t := range g.RSS {
			sum += g.RSS[t][i]
		}
		mean := sum / k
		if mean >= d.rssFloor {
			continue
		}
		var ss float64
		for t := range g.RSS {
			dev := g.RSS[t][i] - mean
			ss += dev * dev
		}
		if math.Sqrt(ss/(k-1)) >= d.spreadMin {
			continue
		}
		d.implausible[i] = true
		if d.implausibleTotal != nil {
			d.implausibleTotal.Inc()
		}
	}
}

// Vote is one witness's composed opinion on a pair relation.
type Vote struct {
	// Sign is the vouched relation: +1 (first node nearer) or −1.
	Sign int
	// Weight is the witness's trust weight (> 0).
	Weight float64
}

// QuorumVote tallies witness votes for one pair: it returns the winning
// sign and true when the total weight reaches minQuorum and the winning
// sign holds at least threshold of it; otherwise (0, false) — no quorum.
// With a unanimous honest majority H and adversarial weight M, the
// outcome equals the honest-only outcome whenever M < H·(1−θ)/θ for
// threshold θ > 1/2 — the soundness property FuzzByzQuorumVote pins,
// the k-malicious bound of Delaët et al. in weight form.
func QuorumVote(votes []Vote, minQuorum, threshold float64) (int, bool) {
	var pos, neg float64
	for _, v := range votes {
		if v.Weight <= 0 {
			continue
		}
		switch {
		case v.Sign > 0:
			pos += v.Weight
		case v.Sign < 0:
			neg += v.Weight
		}
	}
	total := pos + neg
	if total < minQuorum {
		return 0, false
	}
	win, w := 1, pos
	if neg > pos {
		win, w = -1, neg
	}
	if w < threshold*total {
		return 0, false
	}
	return win, true
}

// median returns the median of xs (lower-middle for even lengths, so a
// clean half of the fleet keeps the baseline at its level), or 0 for an
// empty slice. It reorders xs in place: a quickselect that narrows
// [lo, hi] around the median's sorted position. xs must hold no NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	k := (len(xs) - 1) / 2
	lo, hi := 0, len(xs)-1
	for lo < hi {
		pivot := xs[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// sign classifies a pair value: +1 / −1 for a strict relation, 0 for
// Flipped, Star, or a fractional value of exactly zero.
func sign(v vector.Value) int {
	switch {
	case v.IsStar():
		return 0
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// Apply runs the defense's pre-match phase on sampling vector v (in
// place) and returns the per-pair trust weights for the reweighted
// similarity sum — or nil when no node is suspect, in which case v is
// untouched and the caller must run the unmodified matching path (the
// byte-identity contract under an honest fleet).
//
// For every pair involving a suspect, the non-suspect witnesses vote on
// the relation through the transitive composition v[i,m]∘v[m,j]: a
// quorum replaces the direct observation, no quorum stars the pair out.
//
// Pair weight is the minimum of the endpoints' node weights, where a
// node's weight ramps from exactly 1 at the watch level (evidence ≤
// ClearBelow) down to TrustFloor at the suspect threshold — a node
// halfway to conviction has already lost most of its say. The ramp is
// what makes detection converge: a mild discount proportional to (1 −
// trust) would leave a half-convicted liar still dragging the match,
// and a dragged signature hides the very evidence needed to convict.
// Pairs of two full-trust nodes keep weight exactly 1 (multiplying by
// 1.0 is IEEE-exact, so their distance terms are bit-identical to the
// unweighted matcher's); vector rewriting (voting, starring) stays
// reserved for confirmed suspects.
func (d *Defense) Apply(v vector.Vector) []float64 {
	d.orig = append(d.orig[:0], v...)
	d.origValid = true
	if !d.alert {
		return nil
	}
	n := d.n
	if cap(d.weights) < len(v) {
		d.weights = make([]float64, len(v))
	}
	w := d.weights[:len(v)]
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pw := d.nodeWeight(i)
			if wj := d.nodeWeight(j); wj < pw {
				pw = wj
			}
			w[idx] = pw
			if !d.suspect[i] && !d.suspect[j] {
				idx++
				continue
			}
			if !v[idx].IsStar() {
				voted, ok := d.voteOnPair(i, j)
				switch {
				case !ok:
					// No quorum: the suspect's uncorroborated report is
					// discarded — the pair degrades to the eq. 6 unknown
					// state and counts toward the star-fraction policy.
					v[idx] = vector.Star
				case voted != sign(v[idx]):
					if voted > 0 {
						v[idx] = vector.Nearer
					} else {
						v[idx] = vector.Farther
					}
					if d.votesOverridden != nil {
						d.votesOverridden.Inc()
					}
				}
			}
			idx++
		}
	}
	return w
}

// nodeWeight is the similarity-sum weight node i's pairs carry: exactly
// 1 while its evidence sits at or under the watch level (ClearBelow),
// TrustFloor at or beyond the suspect threshold, linear in between.
func (d *Defense) nodeWeight(i int) float64 {
	e := d.evid[i]
	lo, hi := d.cfg.ClearBelow, d.cfg.SuspectAbove
	switch {
	case e <= lo:
		return 1
	case e >= hi:
		return d.cfg.TrustFloor
	default:
		return 1 - (e-lo)/(hi-lo)*(1-d.cfg.TrustFloor)
	}
}

// voteOnPair gathers the non-suspect witnesses' composed votes on pair
// (i, j) and tallies them. Witness m vouches sign s when its relations
// to both endpoints agree on s: v[i,m] == s and v[m,j] == s (the
// distance order is total, so the composition is transitive — only
// witnesses sitting between i and j in that order can certify it).
// Links between two non-suspects are read from the current round's
// pre-correction snapshot; links involving a suspect are read from the
// previous matched signature instead, so a suspect's current reports
// never feed the vote on its own pairs. Before any signature has been
// observed, suspect links carry no information and the vote abstains.
func (d *Defense) voteOnPair(i, j int) (int, bool) {
	var pos, neg float64
	n := d.n
	for m := 0; m < n; m++ {
		if m == i || m == j || d.suspect[m] {
			continue
		}
		sim, ok1 := d.linkVal(i, m)
		smj, ok2 := d.linkVal(m, j)
		if !ok1 || !ok2 || sim == 0 || sim != smj {
			continue
		}
		wt := d.NodeTrust(m)
		if wt <= 0 {
			continue
		}
		if sim > 0 {
			pos += wt
		} else {
			neg += wt
		}
	}
	total := pos + neg
	if total < d.cfg.MinQuorum {
		return 0, false
	}
	win, w := 1, pos
	if neg > pos {
		win, w = -1, neg
	}
	if w < d.cfg.QuorumThreshold*total {
		return 0, false
	}
	return win, true
}

// linkVal reads the sign of one composition link (a, b): from the
// current pre-correction snapshot when both nodes are trusted, from the
// previous matched signature when either is suspect. The second return
// is false when the link carries no usable information.
func (d *Defense) linkVal(a, b int) (int, bool) {
	src := d.orig
	if d.suspect[a] || d.suspect[b] {
		src = d.lastSig
		if len(src) != len(d.orig) {
			return 0, false
		}
	}
	return sign(pairValIn(src, a, b, d.n)), true
}

// pairValIn reads the ordered relation value for nodes (a, b) from v,
// flipping the stored (min, max) pair value when a > b.
func pairValIn(v vector.Vector, a, b, n int) vector.Value {
	if a < b {
		return v[vector.PairIndex(a, b, n)]
	}
	x := v[vector.PairIndex(b, a, n)]
	if x.IsStar() {
		return x
	}
	return -x
}

// unpackCounts splits a packed Observe counter into (informative pairs,
// inversions).
func unpackCounts(c uint64) (tot, inv uint32) { return uint32(c), uint32(c >> 32) }

// Observe runs the defense's post-match learning phase: it charges each
// node the inversions its pairs show against a per-pair reference
// relation (strictly opposite signs — the contradiction benign noise
// cannot sustain), discounts the Def. 8 benign allowance, folds the
// excess into the evidence EMA, and updates the suspect flags with
// hysteresis.
//
// The reference is the matched face's signature. A transitive quorum
// over the round's own reports cannot serve here: every composition
// vote on a pair (i, m) routes through one of i's own links, so a node
// lying uniformly about its distance makes the witnesses unanimously
// confirm the lie on exactly the pairs that would convict it. The
// signature is the only lie-free information channel about a node's
// true geometry — and the graduated weighting in Apply keeps it honest
// while evidence is accruing (see the alert mechanism there).
//
// The snapshot taken by the preceding Apply call supplies the nodes'
// actual reports; Observe is a no-op if no Apply preceded it.
func (d *Defense) Observe(sig vector.Vector) {
	if !d.origValid || len(sig) != len(d.orig) {
		return
	}
	d.origValid = false
	n := d.n
	counts := d.counts[:n]
	clear(counts)
	idx := 0
	for i := 0; i < n; i++ {
		// Row i holds pairs (i, i+1..n-1). One product classifies both
		// values: pair values are Star (NaN) or finite in [−1, 1], so the
		// product is NaN exactly when either is Star (the pair is
		// uninformative) and negative exactly when both are nonzero with
		// opposite signs (an inversion). Branch-free, because the
		// outcome is as unpredictable as the reports.
		row := d.orig[idx : idx+n-1-i]
		srow := sig[idx : idx+len(row)]
		col := counts[i+1:]
		col = col[:len(row)]
		idx += len(row)
		var acc uint64
		for c, o := range row {
			p := o * srow[c]
			var x uint64
			if p == p {
				x = 1
			}
			if p < 0 {
				x |= 1 << 32
			}
			acc += x
			col[c] += x
		}
		counts[i] += acc
	}
	d.rounds++
	// The charging baseline is the fleet's median inversion rate this
	// round plus the Def. 8 benign allowance. An attack under way
	// inflates every node's rate — the dragged signature and the liar's
	// shared pairs charge honest endpoints too — and the median tracks
	// exactly that shared component: honest nodes sit at it and stay
	// clean, while a minority of liars stand out above it. (A liar
	// majority would shift the median itself, but past n/2 malicious
	// nodes no voting scheme can help — the Delaët et al. bound.) The
	// benign floor rides on top, not under a max: each node is entitled
	// to its own (1/2)^(k−1) capture-escape flips in addition to the
	// fleet-shared component, and without that headroom benign noise
	// alone creeps honest evidence over the watch level on long runs —
	// which would break the honest byte-identity contract.
	d.rates = d.rates[:0]
	for _, c := range counts {
		if tot, inv := unpackCounts(c); tot > 0 {
			d.rates = append(d.rates, float64(inv)/float64(tot))
		}
	}
	baseline := median(d.rates) + d.benignFloor
	for i := 0; i < n; i++ {
		if d.repValid && !d.reported[i] {
			continue // silent node this round: evidence frozen
		}
		tot, inv := unpackCounts(counts[i])
		if tot == 0 && !d.implausible[i] {
			continue // no informative pairs: no evidence either way
		}
		rate := 0.0
		if tot > 0 {
			rate = float64(inv) / float64(tot)
		}
		excess := rate - baseline
		if excess < 0 {
			excess = 0
		}
		// Corroboration: one round of excess charges nothing — with ~n
		// informative pairs the per-round rate is coarsely quantized, so
		// benign noise regularly produces isolated spikes, and on long
		// honest runs those would creep the EMA over the watch level
		// (breaking byte-identity). An attacker betraying the pair order
		// does so for every round of its geometric window, so requiring
		// excess in two consecutive rounds costs the detector one round
		// of latency and the honest fleet nothing.
		corroborated := excess > 0 && d.hadExcess[i]
		d.hadExcess[i] = excess > 0
		if !corroborated {
			excess = 0
		}
		if d.implausible[i] {
			// A physically inconsistent report is definitive on its own —
			// charge the full excess regardless of what the (possibly
			// dragged) signature says about this node's pairs.
			excess = 1
		}
		alpha := d.cfg.LearnRate
		if excess < d.evid[i] {
			alpha = d.cfg.DecayRate // asymmetric: evidence outlives the episode
		}
		d.evid[i] += alpha * (excess - d.evid[i])
		if d.trustGauge != nil {
			d.trustGauge[i].Set(d.NodeTrust(i))
		}
		// MinRounds guards the statistical inversion channel against
		// flagging off a noisy first impression; a physically inconsistent
		// report is conclusive on its own, so the gate bypasses it.
		seasoned := d.rounds >= d.cfg.MinRounds || d.implausible[i]
		switch {
		case !d.suspect[i] && seasoned && d.evid[i] > d.cfg.SuspectAbove:
			d.suspect[i] = true
			d.numSuspects++
			if d.suspectsTotal != nil {
				d.suspectsTotal.Inc()
			}
		case d.suspect[i] && d.evid[i] < d.cfg.ClearBelow:
			d.suspect[i] = false
			d.numSuspects--
		}
	}
	d.alert = d.numSuspects > 0
	if !d.alert {
		for i := 0; i < n; i++ {
			if d.evid[i] > d.cfg.ClearBelow {
				d.alert = true
				break
			}
		}
	}
	if d.alert {
		d.lastSig = append(d.lastSig[:0], sig...)
	}
}
