package geom

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refWrapAngle and refWrapSigned are the math.Mod reductions the fast
// paths must reproduce bit for bit.
func refWrapAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

func refWrapSigned(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	switch {
	case a > math.Pi:
		a -= 2 * math.Pi
	case a <= -math.Pi:
		a += 2 * math.Pi
	}
	return a
}

func checkWrapBits(t *testing.T, a float64) {
	t.Helper()
	if got, want := WrapAngle(a), refWrapAngle(a); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("WrapAngle(%v [%#x]) = %v [%#x], want %v [%#x]",
			a, math.Float64bits(a), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := WrapSigned(a), refWrapSigned(a); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("WrapSigned(%v [%#x]) = %v [%#x], want %v [%#x]",
			a, math.Float64bits(a), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestWrapFastPathBitIdentical pins the branch fast path of WrapAngle and
// WrapSigned to the math.Mod reduction: at the branch edges (+-pi, +-2pi,
// +-4pi and their float64 neighbours), at the special values, and over a
// million random angles in [-8pi, 8pi], which also cross the math.Mod
// fallback.
func TestWrapFastPathBitIdentical(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e300, -1e300, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for _, e := range []float64{math.Pi, 2 * math.Pi, 4 * math.Pi} {
		for _, a := range []float64{e, -e} {
			edges = append(edges, a, math.Nextafter(a, math.Inf(1)), math.Nextafter(a, math.Inf(-1)))
		}
	}
	for _, a := range edges {
		checkWrapBits(t, a)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1_000_000; i++ {
		checkWrapBits(t, (rng.Float64()*16-8)*math.Pi)
	}
}
