package main

import (
	"math"
	"math/bits"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p90 at least 100.
const minTail = 10

// tailOK reports whether n samples support percentile p (in (0, 1)) under
// the minTail rule.
func tailOK(n int, p float64) bool {
	return n > 0 && float64(n)*(1-p) >= minTail-1e-9
}

// rank returns the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (not modified)
// and whether the minTail rule lets it be reported. The median (p = 0.5)
// is always reportable for a non-empty sample.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1], p <= 0.5 || tailOK(len(s), p)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so spreads
// match those computed with Python from the same results.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's exclusive rule: position i*(n+1)/4 in 1-based order,
		// the bracketing pair clamped into the sample and then linearly
		// inter- or extrapolated.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// hist is a log-linear histogram of non-negative integer samples
// (nanoseconds): exact below 32, then 16 sub-buckets per octave, so any
// recorded value is known to within 1/16 of itself. Adding is a few
// integer operations, cheap enough for the per-decision hot path of a
// traced run.
type hist struct {
	counts [976]int64
	n      int64
	sum    float64
}

func histIndex(v uint64) int {
	if v < 32 {
		return int(v)
	}
	shift := bits.Len64(v) - 5
	top := v >> uint(shift) // in [16, 31]
	return 32 + (shift-1)*16 + int(top-16)
}

// histValue returns the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 32 {
		return float64(i)
	}
	shift := (i-32)/16 + 1
	top := uint64((i-32)%16 + 16)
	lo := float64(top << uint(shift))
	return lo + float64(uint64(1)<<uint(shift))/2
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))]++
	h.n++
	h.sum += float64(v)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the nearest-rank percentile p of the recorded samples
// and whether the minTail rule lets it be reported.
func (h *hist) quantile(p float64) (float64, bool) {
	if h.n == 0 {
		return 0, false
	}
	r := int64(rank(int(h.n), p))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= r {
			return histValue(i), p <= 0.5 || tailOK(int(h.n), p)
		}
	}
	return histValue(len(h.counts) - 1), false
}

// tally counts operations attempted and failed for one run.
type tally struct {
	attempted, failed int64
}

// add records n operations, all failed when err is non-nil.
func (t *tally) add(n int, err error) {
	t.attempted += int64(n)
	if err != nil {
		t.failed += int64(n)
	}
}

// addFailed records n operations of which bad failed.
func (t *tally) addFailed(n, bad int) {
	t.attempted += int64(n)
	t.failed += int64(bad)
}

// successFrac is the share of attempted operations that did not fail (0
// when nothing was attempted).
func (t tally) successFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - float64(t.failed)/float64(t.attempted)
}

// geomean returns the geometric mean of the positive values of xs and how
// many there were.
func geomean(xs []float64) (float64, int) {
	var lg float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			lg += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(lg / float64(n)), n
}
