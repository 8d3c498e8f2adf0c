// Package geom provides the 3-D vector math, velocity representations and
// closest-point-of-approach geometry used throughout the encounter
// simulations. The coordinate convention follows the paper: X and Y span the
// horizontal plane, Z points up. All quantities are SI (metres, seconds)
// unless a name says otherwise; the aviation constants used by ACAS-style
// logic are defined here once and converted.
package geom

import "math"

// Unit conversion factors between SI and the aviation units in which the
// ACAS X literature states its thresholds.
const (
	// MetersPerFoot converts feet to metres.
	MetersPerFoot = 0.3048
	// MetersPerNauticalMile converts nautical miles to metres.
	MetersPerNauticalMile = 1852.0
	// MetersPerSecondPerKnot converts knots to m/s.
	MetersPerSecondPerKnot = 0.514444
	// MetersPerSecondPerFPM converts feet-per-minute to m/s.
	MetersPerSecondPerFPM = MetersPerFoot / 60.0
	// G is standard gravitational acceleration in m/s^2.
	G = 9.80665
)

// NMAC (near mid-air collision) thresholds. The ACAS X cost model assigns its
// collision penalty to states inside this cylinder; the paper's accident
// detector uses the same definition of a mid-air collision.
const (
	// NMACHorizontal is the NMAC horizontal threshold: 500 ft.
	NMACHorizontal = 500 * MetersPerFoot
	// NMACVertical is the NMAC vertical threshold: 100 ft.
	NMACVertical = 100 * MetersPerFoot
)

// Feet converts a length in feet to metres.
func Feet(ft float64) float64 { return ft * MetersPerFoot }

// FeetOf converts a length in metres to feet.
func FeetOf(m float64) float64 { return m / MetersPerFoot }

// FPM converts a vertical rate in feet-per-minute to m/s.
func FPM(fpm float64) float64 { return fpm * MetersPerSecondPerFPM }

// FPMOf converts a vertical rate in m/s to feet-per-minute.
func FPMOf(ms float64) float64 { return ms / MetersPerSecondPerFPM }

// Knots converts a speed in knots to m/s.
func Knots(kt float64) float64 { return kt * MetersPerSecondPerKnot }

// twoPi is the float64 nearest 2*pi; every angle reduction is modulo it.
const twoPi = 2 * math.Pi

// modTwoPi returns math.Mod(a, twoPi) bit for bit. The angles the
// dynamics produce sit within a step of [0, 2*pi), so |a| < 4*pi takes a
// branch path instead of math.Mod's loop. It is exact: math.Mod returns
// the exact remainder, which for |a| < 2*pi is a itself and for
// 2*pi <= |a| < 4*pi is |a| - twoPi with the sign of a; that difference
// is exact by Sterbenz's lemma (twoPi <= |a| <= 2*twoPi). Writing the
// negative case as -(-a - twoPi) reproduces math.Mod's -0 at a = -twoPi.
func modTwoPi(a float64) float64 {
	switch {
	case a > -twoPi && a < twoPi:
		return a
	case a >= twoPi && a < 2*twoPi:
		return a - twoPi
	case a <= -twoPi && a > -2*twoPi:
		return -(-a - twoPi)
	}
	return math.Mod(a, twoPi)
}

// WrapAngle reduces an angle to the interval [0, 2*pi).
func WrapAngle(a float64) float64 {
	a = modTwoPi(a)
	if a < 0 {
		a += twoPi
	}
	return a
}

// WrapSigned reduces an angle to the interval (-pi, pi].
func WrapSigned(a float64) float64 {
	a = modTwoPi(a)
	switch {
	case a > math.Pi:
		a -= twoPi
	case a <= -math.Pi:
		a += twoPi
	}
	return a
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}
