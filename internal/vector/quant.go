package vector

import (
	"fmt"
	"math"
	"slices"
)

// Int8 quantization codec for signature/sampling values.
//
// The SoA signature store (field.SigSoA) keeps face signatures as
// contiguous int8 columns. A Value quantizes against a denominator
// denom ∈ [1, MaxDenom]: the code of v is round(v·denom), so the
// ternary values of Def. 4 encode with denom 1 as {-1, 0, +1} and the
// Def. 10 extended values (wins−losses)/k encode with denom k as the
// integer wins−losses. Star gets the reserved code StarCode, which no
// legal value can produce (|round(v·denom)| ≤ denom ≤ 127 < 128).
//
// The codec is proven lossless for legal values by construction:
// Quantize re-derives the value from the candidate code and rejects the
// encode — it never clamps or rounds away information — unless the
// round-trip reproduces v bit-for-bit. Dequantize(Quantize(v)) == v
// therefore holds for every value Quantize accepts.

// StarCode is the reserved int8 code for the Star value. It is outside
// [-MaxDenom, MaxDenom], so no quantized legal value collides with it.
const StarCode int8 = math.MinInt8

// MaxDenom is the largest supported quantization denominator: codes
// must fit an int8 alongside the reserved StarCode.
const MaxDenom = 127

// Quantize encodes v against denom. It returns an error — never a
// clamped or approximated code — when v cannot be represented exactly:
// out-of-range magnitudes (|v| > 1), and in-range values that are not
// an exact multiple of 1/denom as a float64.
func Quantize(v Value, denom int) (int8, error) {
	if denom < 1 || denom > MaxDenom {
		return 0, fmt.Errorf("vector: quantization denominator %d outside [1, %d]", denom, MaxDenom)
	}
	if v.IsStar() {
		return StarCode, nil
	}
	r := math.Round(float64(v) * float64(denom))
	if r < -float64(denom) || r > float64(denom) {
		return 0, fmt.Errorf("vector: value %v out of range for denominator %d", float64(v), denom)
	}
	if Value(r/float64(denom)) != v {
		return 0, fmt.Errorf("vector: value %v is not representable with denominator %d", float64(v), denom)
	}
	return int8(r), nil
}

// Dequantize decodes a code produced by Quantize with the same
// denominator. For codes Quantize returned, the result equals the
// original value exactly.
func Dequantize(c int8, denom int) Value {
	if c == StarCode {
		return Star
	}
	return Value(float64(c) / float64(denom))
}

// QuantizeVector appends the codes of every component of v to dst and
// returns the extended slice, or an error naming the first component
// that does not quantize losslessly.
func QuantizeVector(dst []int8, v Vector, denom int) ([]int8, error) {
	return appendCodes(dst, v, denom)
}

// AppendCodeBytes is QuantizeVector appending each code as its
// two's-complement byte, the form the division spill file stores.
func AppendCodeBytes(dst []byte, v Vector, denom int) ([]byte, error) {
	return appendCodes(dst, v, denom)
}

func appendCodes[E int8 | uint8](dst []E, v Vector, denom int) ([]E, error) {
	n := len(dst)
	dst = slices.Grow(dst, len(v))[:n+len(v)]
	out := dst[n:][:len(v)]
	if denom == 1 {
		// Ternary fast path: with denom 1 the only representable values
		// are exactly {-1, 0, +1, Star} (anything else fails Quantize's
		// round-trip check). A float's top four bits tell ±0 and ±1
		// apart, so one table compare validates a component and a second
		// table gives its code: the bulk paths (divide, spill save) then
		// run without the value-dependent branches a compare chain
		// mispredicts on every other random component.
		star := StarCode
		for k, x := range v {
			u := math.Float64bits(float64(x))
			if i := u >> 60; u == ternaryBits[i] {
				out[k] = E(ternaryCode[i])
				continue
			}
			if !x.IsStar() {
				return nil, fmt.Errorf("component %d: vector: value %v is not representable with denominator 1", k, float64(x))
			}
			out[k] = E(star)
		}
		return dst, nil
	}
	for k, x := range v {
		c, err := Quantize(x, denom)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", k, err)
		}
		out[k] = E(c)
	}
	return dst, nil
}

// ternaryBits[i] is the ternary float whose top four bits are i: +0
// (0x0), −0 (0x8), +1 (0x3) or −1 (0xB). Every other slot holds +0,
// which no float with those top bits equals. ternaryCode is the code of
// each.
var (
	ternaryBits = [16]uint64{0x8: 1 << 63, 0x3: 0x3FF0 << 48, 0xB: 0xBFF0 << 48}
	ternaryCode = [16]int8{0x3: 1, 0xB: -1}
)

// DequantizeVector appends the decoded values of codes to dst and
// returns the extended slice.
func DequantizeVector(dst Vector, codes []int8, denom int) Vector {
	for _, c := range codes {
		dst = append(dst, Dequantize(c, denom))
	}
	return dst
}

// CommonDenominator returns the smallest denominator in [1, MaxDenom]
// that losslessly quantizes every distinct value of vs, or 0 if none
// exists (a value outside [-1, 1], or one that is no exact multiple of
// 1/denom for any legal denom — e.g. an irrational fraction's float).
// Ternary vectors resolve to 1; Def. 10 vectors over k samples resolve
// to a divisor of k.
func CommonDenominator(vs ...Vector) int {
	// Ternary fast path: every division the RatioClassifier builds is
	// pure {-1, 0, +1, Star}, and hashing hundreds of thousands of
	// float keys below would dominate divide time. A plain comparison
	// scan settles denom 1 without touching the map.
	ternary := true
scan:
	for _, v := range vs {
		for _, x := range v {
			if x != 0 && x != 1 && x != -1 && !x.IsStar() {
				ternary = false
				break scan
			}
		}
	}
	if ternary {
		return 1
	}
	// Collect the distinct non-star values first: the denominator search
	// then costs O(distinct × denom) instead of O(total × denom).
	var distinct []Value
	seen := make(map[Value]struct{})
	for _, v := range vs {
		for _, x := range v {
			if x.IsStar() {
				continue
			}
			if _, ok := seen[x]; !ok {
				seen[x] = struct{}{}
				distinct = append(distinct, x)
			}
		}
	}
	for denom := 1; denom <= MaxDenom; denom++ {
		ok := true
		for _, x := range distinct {
			if _, err := Quantize(x, denom); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return denom
		}
	}
	return 0
}
