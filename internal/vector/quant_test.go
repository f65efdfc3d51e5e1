package vector

import (
	"math"
	"testing"
)

// TestQuantizeTernaryRoundTrip pins the base contract: the Def. 4
// ternary values and Star round-trip exactly at every legal
// denominator.
func TestQuantizeTernaryRoundTrip(t *testing.T) {
	for denom := 1; denom <= MaxDenom; denom++ {
		for _, v := range []Value{Farther, Flipped, Nearer, Star} {
			c, err := Quantize(v, denom)
			if err != nil {
				t.Fatalf("Quantize(%v, %d): %v", v, denom, err)
			}
			got := Dequantize(c, denom)
			if v.IsStar() {
				if !got.IsStar() {
					t.Fatalf("Star round-trips to %v at denom %d", got, denom)
				}
				if c != StarCode {
					t.Fatalf("Star encodes to %d at denom %d, want %d", c, denom, StarCode)
				}
				continue
			}
			if got != v {
				t.Fatalf("Quantize/Dequantize(%v, %d) = %v", v, denom, got)
			}
		}
	}
}

// TestQuantizeFractionRoundTrip is the Def. 10 property: every
// extended value (wins−losses)/k, computed the way sampling computes it
// (float64 division), round-trips losslessly at denominator k, for
// every k up to the codec limit.
func TestQuantizeFractionRoundTrip(t *testing.T) {
	for k := 1; k <= MaxDenom; k++ {
		for p := -k; p <= k; p++ {
			v := Value(float64(p) / float64(k))
			c, err := Quantize(v, k)
			if err != nil {
				t.Fatalf("Quantize(%d/%d): %v", p, k, err)
			}
			if int(c) != p {
				t.Fatalf("Quantize(%d/%d) = code %d, want %d", p, k, c, p)
			}
			if got := Dequantize(c, k); got != v {
				t.Fatalf("Dequantize(Quantize(%d/%d)) = %v, want %v", p, k, float64(got), float64(v))
			}
		}
	}
}

// TestQuantizeRejectsOutOfRange pins explicit rejection — never silent
// clamping — for magnitudes beyond 1.
func TestQuantizeRejectsOutOfRange(t *testing.T) {
	for _, v := range []Value{1.0000001, -1.0000001, 2, -2, Value(math.Inf(1)), Value(math.Inf(-1))} {
		for _, denom := range []int{1, 5, MaxDenom} {
			if c, err := Quantize(v, denom); err == nil {
				t.Errorf("Quantize(%v, %d) = %d, want out-of-range error", float64(v), denom, c)
			}
		}
	}
}

// TestQuantizeRejectsUnrepresentable pins rejection of in-range values
// that are not exact multiples of 1/denom: rounding them to the nearest
// code would lose information, so the codec must refuse.
func TestQuantizeRejectsUnrepresentable(t *testing.T) {
	cases := []struct {
		v     Value
		denom int
	}{
		{0.5, 1},                       // a k=2 fraction at ternary denom
		{Value(1.0 / 3.0), 2},          // thirds at halves
		{0.1, 3},                       // tenths at thirds
		{Value(math.Pi / 4), MaxDenom}, // nowhere representable
	}
	for _, tc := range cases {
		if c, err := Quantize(tc.v, tc.denom); err == nil {
			t.Errorf("Quantize(%v, %d) = %d, want unrepresentable error", float64(tc.v), tc.denom, c)
		}
	}
}

// TestQuantizeRejectsBadDenominator covers the denominator domain.
func TestQuantizeRejectsBadDenominator(t *testing.T) {
	for _, denom := range []int{0, -1, MaxDenom + 1} {
		if _, err := Quantize(Flipped, denom); err == nil {
			t.Errorf("Quantize(0, %d) accepted, want denominator error", denom)
		}
	}
}

// TestQuantizeVectorRoundTrip exercises the slice helpers end to end,
// mixing ternary, Star and fractional components.
func TestQuantizeVectorRoundTrip(t *testing.T) {
	const k = 5
	v := Vector{Nearer, Farther, Star, Flipped, Value(3.0 / k), Value(-4.0 / k), Value(1.0 / k)}
	codes, err := QuantizeVector(nil, v, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != len(v) {
		t.Fatalf("got %d codes for %d components", len(codes), len(v))
	}
	back := DequantizeVector(nil, codes, k)
	if !Equal(back, v) {
		t.Fatalf("round-trip mismatch:\n in  %v\n out %v", v, back)
	}
	// A single bad component rejects the whole vector.
	v[2] = 0.5 // not a fifth
	if _, err := QuantizeVector(nil, v, k); err == nil {
		t.Error("QuantizeVector accepted an unrepresentable component")
	}
}

// TestQuantizeVectorTernaryMatchesQuantize pins the denominator-1 bulk
// path, which classifies floats by their bit patterns, to the scalar
// codec on the values whose bits sit next to the ternary ones.
func TestQuantizeVectorTernaryMatchesQuantize(t *testing.T) {
	vals := []Value{0, Value(math.Copysign(0, -1)), 1, -1, Star,
		Value(math.Float64frombits(0x7FF8000000000001)), // another NaN
		Value(math.Nextafter(1, 2)), Value(math.Nextafter(-1, -2)), Value(math.Nextafter(1, 0)),
		Value(math.SmallestNonzeroFloat64), 0.5, -0.5, 2, -2,
		Value(math.Inf(1)), Value(math.Inf(-1)),
		Value(math.Float64frombits(0x3000000000000000)), Value(math.Float64frombits(0xB000000000000000))}
	for _, x := range vals {
		want, werr := Quantize(x, 1)
		got, gerr := QuantizeVector(nil, Vector{x}, 1)
		b, berr := AppendCodeBytes(nil, Vector{x}, 1)
		if (werr == nil) != (gerr == nil) || (werr == nil) != (berr == nil) {
			t.Errorf("%v (bits %#x): Quantize err %v, QuantizeVector err %v, AppendCodeBytes err %v",
				float64(x), math.Float64bits(float64(x)), werr, gerr, berr)
			continue
		}
		if werr == nil && (got[0] != want || int8(b[0]) != want) {
			t.Errorf("%v: Quantize %d, QuantizeVector %d, AppendCodeBytes %d", float64(x), want, got[0], int8(b[0]))
		}
	}
}

// TestCommonDenominator pins the denominator search: ternary resolves
// to 1, Def. 10 vectors to their k, and unquantizable input to 0.
func TestCommonDenominator(t *testing.T) {
	if d := CommonDenominator(Vector{Nearer, Farther, Flipped, Star}); d != 1 {
		t.Errorf("ternary common denominator = %d, want 1", d)
	}
	const k = 7
	frac := Vector{Value(2.0 / k), Value(-5.0 / k), Nearer}
	if d := CommonDenominator(frac); d != k {
		t.Errorf("k=%d fractional common denominator = %d, want %d", k, d, k)
	}
	if d := CommonDenominator(Vector{Value(math.Pi / 4)}); d != 0 {
		t.Errorf("pi/4 common denominator = %d, want 0", d)
	}
	if d := CommonDenominator(Vector{Value(1.5)}); d != 0 {
		t.Errorf("out-of-range common denominator = %d, want 0", d)
	}
	if d := CommonDenominator(); d != 1 {
		t.Errorf("empty common denominator = %d, want 1", d)
	}
}
