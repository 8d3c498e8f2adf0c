package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		return xs
	}
	cases := []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		{n: 99, p: 0.9, want: 90, report: false},
		{n: 100, p: 0.9, want: 90, report: true},
		{n: 999, p: 0.99, want: 990, report: false},
		{n: 1000, p: 0.99, want: 990, report: true},
		{n: 1, p: 0.5, want: 1, report: true},
		{n: 4, p: 0.5, want: 2, report: true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.report {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.report)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestHistQuantileFollowsTheTailRule(t *testing.T) {
	var h hist
	for i := 1; i <= 999; i++ {
		h.add(int64(i * 1000))
	}
	if _, ok := h.quantile(0.99); ok {
		t.Error("p99 of 999 samples reported")
	}
	h.add(1000 * 1000)
	v, ok := h.quantile(0.99)
	if !ok {
		t.Fatal("p99 of 1000 samples withheld")
	}
	if math.Abs(v-990000)/990000 > 1.0/16 {
		t.Errorf("p99 = %g, want 990000 within the bucket resolution", v)
	}
	if m := h.mean(); math.Abs(m-500500) > 1e-6 {
		t.Errorf("mean = %g, want 500500", m)
	}
}

func TestHistBucketsBracketTheirValues(t *testing.T) {
	for _, v := range []uint64{0, 1, 31, 32, 33, 100, 1023, 1024, 123456789, 1 << 40} {
		mid := histValue(histIndex(v))
		if v < 32 && mid != float64(v) {
			t.Errorf("small value %d maps to %g", v, mid)
		}
		if v >= 32 && math.Abs(mid-float64(v))/float64(v) > 1.0/16 {
			t.Errorf("value %d maps to bucket midpoint %g", v, mid)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each sample.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", s)
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	var ta tally
	ta.add(500, nil)
	ta.add(500, errors.New("episode failed"))
	ta.addFailed(12, 2)
	if ta.attempted != 1012 || ta.failed != 502 {
		t.Fatalf("tally = %+v, want 1012 attempted, 502 failed", ta)
	}
	if got, want := ta.successFrac(), 1-502.0/1012; math.Abs(got-want) > 1e-15 {
		t.Errorf("successFrac = %g, want %g", got, want)
	}
	if (tally{}).successFrac() != 0 {
		t.Error("an empty tally reports success")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name   string
		head   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", base, "higher", 0.1, verdictWithin},
		{"slower within bound", scale(base, 0.95), "higher", 0.1, verdictWithin},
		{"slower beyond bound", scale(base, 0.85), "higher", 0.1, verdictRegressed},
		{"faster everywhere", scale(base, 1.2), "higher", 0.1, verdictImproved},
		{"lower is better, rose", scale(base, 1.2), "lower", 0.1, verdictRegressed},
		{"lower is better, fell", scale(base, 0.8), "lower", 0.1, verdictImproved},
		{"no bound", scale(base, 0.5), "higher", 0, verdictNoBound},
	}
	for _, c := range cases {
		if got := verdict(base, c.head, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got := verdict(noisy, scale(noisy, 0.97), "higher", 0.1); got != verdictUnresolved {
		t.Errorf("noisy base: verdict = %q, want %q", got, verdictUnresolved)
	}
}

func TestReadResultsPairsEnvAndResultLines(t *testing.T) {
	in := strings.Join([]string{
		`build noise`,
		`{"env": {"workload": "mc-pairwise", "seed": 1}}`,
		`{"correct": true, "attempted": 10, "failed": 0, "metrics": {"episodes_per_s": {"value": 5, "unit": "1/s"}}}`,
		`{"env": {"workload": "mc-pairwise", "seed": 2}}`,
		`{"correct": true, "attempted": 10, "failed": 0, "metrics": {"episodes_per_s": {"value": 7, "unit": "1/s"}}}`,
		`{"env": {"workload": "campaign-mix", "seed": 1}}`,
		`{"correct": true, "attempted": 10, "failed": 0, "metrics": {"units_per_s": {"value": 3, "unit": "1/s"}}}`,
	}, "\n")
	set, err := readResults(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := set["mc-pairwise"]["episodes_per_s"]; len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Errorf("mc-pairwise episodes_per_s = %v, want [5 7]", got)
	}
	if got := set["campaign-mix"]["units_per_s"]; len(got) != 1 || got[0] != 3 {
		t.Errorf("campaign-mix units_per_s = %v, want [3]", got)
	}
	if _, err := readResults(strings.NewReader(`{"correct": true, "metrics": {}}`)); err == nil {
		t.Error("a result line without its env line was accepted")
	}
}
