// Package vector implements the signature/sampling vector algebra of the
// paper: ternary node-pair values (Def. 4), the ascending pair enumeration
// shared by sampling vectors (Def. 5) and signature vectors (Def. 6), the
// star value used by the fault-tolerance rules (eq. 6), the modified
// component difference (Def. 8, eq. 7), the Euclidean similarity (Def. 7),
// and the quantitative extended values of the strategy extension
// (Def. 10).
package vector

import (
	"fmt"
	"math"
	"strings"
)

// Value is a node-pair value. The ternary values of Def. 4 are -1, 0 and
// +1; Star marks a pair in which neither node reported (eq. 6, case 4).
// Extended FTTT additionally uses fractional values in [-1, 1] (Def. 10).
type Value float64

// The ternary pair values. For a pair (n_i, n_j) with i < j:
// Nearer (+1) means rss_i was greater in every sample of the group,
// Farther (-1) means rss_j was greater in every sample, and Flipped (0)
// means the order inverted at least once within the group — the target is
// in the pair's uncertain area.
const (
	Farther Value = -1
	Flipped Value = 0
	Nearer  Value = 1
)

// Star marks a pair whose relation is unknown because neither node
// reported. It never contributes to a vector difference (eq. 7). NaN is
// used so Star can share the float64 representation with extended values.
var Star = Value(math.NaN())

// IsStar reports whether v is the star value.
func (v Value) IsStar() bool { return math.IsNaN(float64(v)) }

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.IsStar() {
		return "*"
	}
	if float64(v) == math.Trunc(float64(v)) {
		return fmt.Sprintf("%+d", int(v))
	}
	return fmt.Sprintf("%+.3f", float64(v))
}

// NumPairs returns C(n, 2), the dimension of vectors over n nodes.
func NumPairs(n int) int {
	if n < 2 {
		return 0
	}
	return n * (n - 1) / 2
}

// PairIndex maps the node pair (i, j) with 0 <= i < j < n to its position
// in the ascending enumeration (n_0,n_1), (n_0,n_2), …, (n_{n-2},n_{n-1})
// of Def. 5/6. It panics on an invalid pair.
func PairIndex(i, j, n int) int {
	if i < 0 || j <= i || j >= n {
		panic(fmt.Sprintf("vector: invalid pair (%d,%d) for n=%d", i, j, n))
	}
	// Pairs with first element < i occupy sum_{a<i} (n-1-a) slots.
	return i*(2*n-i-1)/2 + (j - i - 1)
}

// PairAt is the inverse of PairIndex: it returns the pair (i, j) at
// position idx of the enumeration over n nodes.
func PairAt(idx, n int) (i, j int) {
	if idx < 0 || idx >= NumPairs(n) {
		panic(fmt.Sprintf("vector: pair index %d out of range for n=%d", idx, n))
	}
	i = 0
	for block := n - 1; idx >= block; block-- {
		idx -= block
		i++
	}
	return i, i + 1 + idx
}

// Vector is a sampling or signature vector: one Value per node pair in
// ascending pair order. Vectors are plain slices; use Clone before
// mutating a shared vector.
type Vector []Value

// New returns a zero (all-Flipped) vector over n nodes.
func New(n int) Vector { return make(Vector, NumPairs(n)) }

// FromInts builds a vector from ternary ints, convenient in tests and
// examples: 1, 0, -1 map to Nearer, Flipped, Farther.
func FromInts(vals ...int) Vector {
	v := make(Vector, len(vals))
	for k, x := range vals {
		v[k] = Value(x)
	}
	return v
}

// AppendCodes appends the values of ternary int8 codes (a division's
// signature row: +1, 0 or −1 per pair) to dst and returns the extended
// slice.
func AppendCodes(dst Vector, codes []int8) Vector {
	for _, c := range codes {
		dst = append(dst, Value(c))
	}
	return dst
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dim returns the number of components (node pairs).
func (v Vector) Dim() int { return len(v) }

// Nodes returns the number of nodes n with C(n,2) == len(v), or -1 if the
// length is not a triangular number.
func (v Vector) Nodes() int {
	// Solve n(n-1)/2 == len.
	n := int((1 + math.Sqrt(1+8*float64(len(v)))) / 2)
	for _, cand := range []int{n - 1, n, n + 1} {
		if cand >= 0 && NumPairs(cand) == len(v) {
			return cand
		}
	}
	return -1
}

// Get returns the value of pair (i, j), i < j, for a vector over n nodes.
func (v Vector) Get(i, j, n int) Value { return v[PairIndex(i, j, n)] }

// Set assigns the value of pair (i, j), i < j, for a vector over n nodes.
func (v Vector) Set(i, j, n int, val Value) { v[PairIndex(i, j, n)] = val }

// Diff returns the component-wise modified difference of Def. 8: any
// component in which either vector holds Star contributes zero (eq. 7).
// It panics if the dimensions differ.
func Diff(a, b Vector) Vector {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", len(a), len(b)))
	}
	d := make(Vector, len(a))
	for k := range a {
		if a[k].IsStar() || b[k].IsStar() {
			d[k] = 0
			continue
		}
		d[k] = a[k] - b[k]
	}
	return d
}

// Distance returns the Euclidean norm of the modified difference.
func Distance(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for k := range a {
		if a[k].IsStar() || b[k].IsStar() {
			continue
		}
		d := float64(a[k] - b[k])
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Similarity returns 1/Distance(a, b), the maximum-likelihood matching
// score of Def. 7. Identical vectors have infinite similarity, which
// Go's float64 ordering handles naturally when selecting a maximum.
func Similarity(a, b Vector) float64 {
	d := Distance(a, b)
	if d == 0 {
		return math.Inf(1)
	}
	return 1 / d
}

// Equal reports whether a and b agree in every component, with Star equal
// only to Star.
func Equal(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		switch {
		case a[k].IsStar() && b[k].IsStar():
		case a[k].IsStar() || b[k].IsStar():
			return false
		case a[k] != b[k]:
			return false
		}
	}
	return true
}

// HammingNeighbors reports whether a and b differ in exactly one component
// and by exactly magnitude 1 there — the neighbor-face relation of
// Theorem 1. Star components are skipped.
func HammingNeighbors(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	diffs := 0
	for k := range a {
		if a[k].IsStar() || b[k].IsStar() {
			continue
		}
		d := math.Abs(float64(a[k] - b[k]))
		if d == 0 {
			continue
		}
		if d != 1 {
			return false
		}
		diffs++
		if diffs > 1 {
			return false
		}
	}
	return diffs == 1
}

// Key returns a compact string key identifying a ternary vector; vectors
// with the same key have identical components. Intended for grouping grid
// cells into faces (Lemma 1). Extended (fractional) vectors should not be
// used as keys.
func (v Vector) Key() string {
	var sb strings.Builder
	sb.Grow(len(v))
	for _, x := range v {
		switch {
		case x.IsStar():
			sb.WriteByte('*')
		case x == Farther:
			sb.WriteByte('-')
		case x == Nearer:
			sb.WriteByte('+')
		case x == Flipped:
			sb.WriteByte('0')
		default:
			// Fractional values: include a short fixed-point form so the
			// key remains injective enough for debugging; callers should
			// not rely on fractional keys.
			fmt.Fprintf(&sb, "(%.3f)", float64(x))
		}
	}
	return sb.String()
}

// String implements fmt.Stringer.
func (v Vector) String() string {
	parts := make([]string, len(v))
	for k, x := range v {
		parts[k] = x.String()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// CountFlipped returns the number of components that recorded at least
// one observed order flip: the ternary Flipped value and the fractional
// extended values — everything that is neither ±1 nor Star. This is the
// per-localization flip count the telemetry layer exports
// (fttt_core_flipped_pairs_total).
func (v Vector) CountFlipped() int {
	c := 0
	for _, x := range v {
		if x.IsStar() {
			continue
		}
		if x > Farther && x < Nearer {
			c++
		}
	}
	return c
}

// CountStars returns the number of Star components.
func (v Vector) CountStars() int {
	n := 0
	for _, x := range v {
		if x.IsStar() {
			n++
		}
	}
	return n
}
