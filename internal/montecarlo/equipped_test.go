package montecarlo

import (
	"context"
	"testing"

	"acasxval/internal/encounter"
)

// TestEvaluateBatchSizeInvariance: an equipped (ACAS) estimate must be
// bit-identical for any worker count, so scheduling never reaches the
// table-driven decision path. (The name predates the removal of the
// lockstep batch knob it once also swept.)
func TestEvaluateBatchSizeInvariance(t *testing.T) {
	factory := acasFactory(t)
	model := DefaultEncounterModel()
	cfg := DefaultConfig()
	cfg.Samples = 40
	cfg.Seed = 99
	base := requireWorkerInvariant(t, cfg, func(cfg Config) (*Estimate, error) {
		return Evaluate(model, factory, cfg)
	})
	if base.AlertRate == 0 {
		t.Error("invariance fixture never alerted; the comparison is vacuous for the decision path")
	}
}

// TestEvaluateMultiBatchSizeInvariance: the same invariance over K = 2
// intruder encounters, where the ownship fuses two threats per decision
// cycle.
func TestEvaluateMultiBatchSizeInvariance(t *testing.T) {
	factory := acasFactory(t)
	model := MultiEncounterModel{
		Intruders: []EncounterModel{DefaultEncounterModel(), DefaultEncounterModel()},
	}
	cfg := DefaultConfig()
	cfg.Samples = 24
	cfg.Seed = 5
	base := requireWorkerInvariant(t, cfg, func(cfg Config) (*Estimate, error) {
		return EvaluateMulti(model, factory, cfg)
	})
	if base.AlertRate == 0 {
		t.Error("invariance fixture never alerted; the comparison is vacuous for the decision path")
	}
}

// requireWorkerInvariant runs eval at 1, 2 and 3 workers and fails unless
// every estimate is identical; it returns the single-worker estimate.
func requireWorkerInvariant(t *testing.T, cfg Config, eval func(Config) (*Estimate, error)) *Estimate {
	t.Helper()
	var base *Estimate
	for _, workers := range []int{1, 2, 3} {
		cfg.Parallelism = workers
		est, err := eval(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = est
			continue
		}
		if *est != *base {
			t.Errorf("workers=%d: estimate differs\n got: %+v\nwant: %+v", workers, est, base)
		}
	}
	return base
}

// BenchmarkEvaluateEquippedSteadyState is the table-bound counterpart of
// BenchmarkEvaluateSteadyState: both aircraft run the ACAS executive over
// the head-on conflict geometry (the point model keeps every decision
// cycle inside the optimization horizon), so each episode pays the
// interpolated table gathers that dominate equipped campaign and search
// workloads. It reports episodes/s; allocs/op is per-episode steady state
// and must stay ~0. The "exact" sub-benchmark name matches the read-only
// BENCH_*.json history.
func BenchmarkEvaluateEquippedSteadyState(b *testing.B) {
	model := MultiPointModel(encounter.PresetHeadOn().Multi())
	b.Run("exact", func(b *testing.B) {
		factory := acasFactory(b)
		cfg := DefaultConfig()
		cfg.Samples = b.N
		cfg.Seed = 1
		cfg.Parallelism = 1
		scratch := &Scratch{}
		b.ReportAllocs()
		b.ResetTimer()
		est, err := EvaluateContext(context.Background(), model, factory, cfg, RareEventSpec{}, scratch)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "episodes/s")
		b.ReportMetric(est.PNMAC, "P-NMAC")
	})
}
