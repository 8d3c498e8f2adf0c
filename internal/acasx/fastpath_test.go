package acasx

import (
	"math"
	"testing"

	"acasxval/internal/stats"
)

// randomStates draws n seeded query states spanning the table's domain,
// deliberately overshooting the bounds so clamping paths are exercised.
func randomStates(table *Table, n int, seed uint64) []struct{ tau, h, dh0, dh1 float64 } {
	rng := stats.NewRNG(seed)
	g := table.cfg.Grid
	out := make([]struct{ tau, h, dh0, dh1 float64 }, n)
	for i := range out {
		out[i].tau = rng.Float64()*float64(g.Horizon+4) - 2
		out[i].h = (rng.Float64()*2 - 1) * g.HMax * 1.2
		out[i].dh0 = (rng.Float64()*2 - 1) * g.RateMax * 1.2
		out[i].dh1 = (rng.Float64()*2 - 1) * g.RateMax * 1.2
	}
	return out
}

// TestSharedWeightLookupGolden is the golden equivalence test for the
// shared-weight lookup: AllQValues, BestAdvisory and Value must agree
// bit for bit with the per-action QValue reference path across a seeded
// random state sample, for every advisory state and mask.
func TestSharedWeightLookupGolden(t *testing.T) {
	table := getCoarseTable(t)
	masks := []SenseMask{
		{},
		{BanUp: true},
		{BanDown: true},
		{BanUp: true, BanDown: true},
	}
	for _, s := range randomStates(table, 300, 7) {
		for ra := 0; ra < NumAdvisories; ra++ {
			var q [NumAdvisories]float64
			table.AllQValues(&q, s.tau, s.h, s.dh0, s.dh1, Advisory(ra))
			refBest := math.Inf(-1)
			for a := 0; a < NumAdvisories; a++ {
				ref := table.QValue(s.tau, s.h, s.dh0, s.dh1, Advisory(ra), Advisory(a))
				if math.Float64bits(q[a]) != math.Float64bits(ref) {
					t.Fatalf("state %+v ra=%d a=%d: AllQValues %v != QValue %v", s, ra, a, q[a], ref)
				}
				if ref > refBest {
					refBest = ref
				}
			}
			if got := table.Value(s.tau, s.h, s.dh0, s.dh1, Advisory(ra)); math.Float64bits(got) != math.Float64bits(refBest) {
				t.Fatalf("state %+v ra=%d: Value %v != max-over-QValue %v", s, ra, got, refBest)
			}
			for _, mask := range masks {
				// Reference: the original per-action argmax over QValue.
				wantBest, wantFound := COC, false
				wantQ := math.Inf(-1)
				for _, a := range Advisories() {
					if !mask.Allows(a) {
						continue
					}
					if ref := table.QValue(s.tau, s.h, s.dh0, s.dh1, Advisory(ra), a); ref > wantQ {
						wantQ, wantBest, wantFound = ref, a, true
					}
				}
				gotBest, gotFound := table.BestAdvisory(s.tau, s.h, s.dh0, s.dh1, Advisory(ra), mask)
				if gotBest != wantBest || gotFound != wantFound {
					t.Fatalf("state %+v ra=%d mask=%+v: BestAdvisory (%v,%v) != reference (%v,%v)",
						s, ra, mask, gotBest, gotFound, wantBest, wantFound)
				}
			}
		}
	}
}

// TestAllQValuesInvalidAdvisoryState: an invalid ra yields -Inf across the
// board and no selectable advisory, matching the per-action path.
func TestAllQValuesInvalidAdvisoryState(t *testing.T) {
	table := getCoarseTable(t)
	var q [NumAdvisories]float64
	table.AllQValues(&q, 10, 0, 0, 0, Advisory(99))
	for a, v := range q {
		if !math.IsInf(v, -1) {
			t.Fatalf("a=%d: got %v, want -Inf", a, v)
		}
	}
	if _, ok := table.BestAdvisory(10, 0, 0, 0, Advisory(99), SenseMask{}); ok {
		t.Fatal("BestAdvisory accepted an invalid advisory state")
	}
}

// TestBeliefExpectedAllQGolden: the belief executive's batched integration
// must agree bit for bit with the per-action expectedQ reference.
func TestBeliefExpectedAllQGolden(t *testing.T) {
	table := getCoarseTable(t)
	for _, sigmas := range []BeliefSigmas{
		DefaultBeliefSigmas(),
		{H: 0, Rate: 0.5, Tau: 0}, // zero-sigma dimensions skip nodes
		{},
	} {
		l, err := NewBeliefLogic(table, sigmas)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range randomStates(table, 60, 11) {
			for ra := 0; ra < NumAdvisories; ra++ {
				var q [NumAdvisories]float64
				l.expectedAllQ(&q, s.tau, s.h, s.dh0, s.dh1, Advisory(ra))
				for a := 0; a < NumAdvisories; a++ {
					ref := l.expectedQ(s.tau, s.h, s.dh0, s.dh1, Advisory(ra), Advisory(a))
					if math.Float64bits(q[a]) != math.Float64bits(ref) {
						t.Fatalf("sigmas %+v state %+v ra=%d a=%d: %v != %v", sigmas, s, ra, a, q[a], ref)
					}
				}
			}
		}
	}
}

// TestSweepEquivalenceBitIdentical: the precomputed-transition solve and
// the legacy per-slice projection must produce bit-identical tables.
func TestSweepEquivalenceBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := tinyConfig()
		cfg.Workers = workers
		cached, err := BuildTable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.LegacySweep = true
		legacy, err := BuildTable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(cached.q) != len(legacy.q) {
			t.Fatalf("workers=%d: slice count %d vs %d", workers, len(cached.q), len(legacy.q))
		}
		for k := range cached.q {
			for i := range cached.q[k] {
				if math.Float64bits(cached.q[k][i]) != math.Float64bits(legacy.q[k][i]) {
					t.Fatalf("workers=%d: slice %d entry %d: cached %v != legacy %v",
						workers, k, i, cached.q[k][i], legacy.q[k][i])
				}
			}
		}
	}
}

// TestSweepEquivalentAdvisories: belt and braces on top of the bit-identity
// check — both solvers select the same advisory across a state sample.
func TestSweepEquivalentAdvisories(t *testing.T) {
	cfg := tinyConfig()
	cached, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LegacySweep = true
	legacy, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range randomStates(cached, 200, 3) {
		for ra := 0; ra < NumAdvisories; ra++ {
			a1, ok1 := cached.BestAdvisory(s.tau, s.h, s.dh0, s.dh1, Advisory(ra), SenseMask{})
			a2, ok2 := legacy.BestAdvisory(s.tau, s.h, s.dh0, s.dh1, Advisory(ra), SenseMask{})
			if a1 != a2 || ok1 != ok2 {
				t.Fatalf("state %+v ra=%d: cached %v/%v vs legacy %v/%v", s, ra, a1, ok1, a2, ok2)
			}
		}
	}
}

// TestLookupHotPathZeroAlloc is the allocation gate on the online hot path:
// a decision-cycle table query must not allocate. CI additionally runs
// BenchmarkTableLookupHot with -benchmem and fails on a non-zero allocs/op.
func TestLookupHotPathZeroAlloc(t *testing.T) {
	table := getCoarseTable(t)
	var sink Advisory
	allocs := testing.AllocsPerRun(200, func() {
		sink, _ = table.BestAdvisory(12.5, 30, 1.5, -2.5, COC, SenseMask{})
	})
	if allocs != 0 {
		t.Fatalf("BestAdvisory allocated %v times per run", allocs)
	}
	var q [NumAdvisories]float64
	allocs = testing.AllocsPerRun(200, func() {
		table.AllQValues(&q, 7.25, -40, 2, 1, Climb1500)
	})
	if allocs != 0 {
		t.Fatalf("AllQValues allocated %v times per run", allocs)
	}
	_ = sink
}
