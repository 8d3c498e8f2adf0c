package core_test

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"acasxval/internal/acasx"
	"acasxval/internal/core"
	"acasxval/internal/encounter"
	"acasxval/internal/ga"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
	"acasxval/internal/sim"
)

var (
	tableOnce sync.Once
	testTable *acasx.Table
	tableErr  error
)

func acasFactory(tb testing.TB) core.SystemFactory {
	tb.Helper()
	tableOnce.Do(func() {
		cfg := acasx.DefaultConfig()
		cfg.Workers = 8
		testTable, tableErr = acasx.BuildTable(cfg)
	})
	if tableErr != nil {
		tb.Fatal(tableErr)
	}
	return func() (sim.System, sim.System) {
		return sim.NewACASXU(testTable), sim.NewACASXU(testTable)
	}
}

// quickFitness keeps unit tests fast: few sims per encounter.
func quickFitness() core.FitnessConfig {
	cfg := core.DefaultFitnessConfig()
	cfg.SimsPerEncounter = 8
	return cfg
}

// evaluate scores one pairwise encounter with the search's fitness
// function.
func evaluate(t *testing.T, p encounter.Params, seed uint64, fit core.FitnessConfig, factory core.SystemFactory) (float64, *montecarlo.Estimate) {
	t.Helper()
	fitness, est, err := search.EvaluateEncounter(context.Background(), p.Multi(), seed, fit, factory, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fitness, est
}

// quickSpec is a single-island (the paper's single-population) search at
// unit-test scale.
func quickSpec(pop, gens int, seed uint64) search.Spec {
	spec := search.DefaultSpec()
	spec.Islands = 1
	spec.GA.PopulationSize = pop
	spec.GA.Generations = gens
	spec.Seed = seed
	spec.Fitness.SimsPerEncounter = 4
	return spec
}

// runLogged runs spec and returns its result with the evaluation log.
func runLogged(t *testing.T, spec search.Spec, factory core.SystemFactory) (*search.Result, []ga.Evaluation) {
	t.Helper()
	var evals []ga.Evaluation
	res, err := search.Run(spec, factory, search.Options{Observer: search.LogEvaluations(&evals)})
	if err != nil {
		t.Fatal(err)
	}
	return res, evals
}

func TestFitnessConfigValidation(t *testing.T) {
	if err := core.DefaultFitnessConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := core.DefaultFitnessConfig()
	bad.SimsPerEncounter = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero sims accepted")
	}
	bad2 := core.DefaultFitnessConfig()
	bad2.CollisionGain = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero gain accepted")
	}
	bad3 := core.DefaultFitnessConfig()
	bad3.Run.Dt = 0
	if err := bad3.Validate(); err == nil {
		t.Error("bad run config accepted")
	}
}

// TestUnequippedHeadOnFitnessNearMax: without avoidance the head-on preset
// collides in (almost) every run, so the fitness approaches the collision
// gain.
func TestUnequippedHeadOnFitnessNearMax(t *testing.T) {
	fitness, est := evaluate(t, encounter.PresetHeadOn(), 1, quickFitness(), montecarlo.Unequipped)
	if est.NMACs < est.Samples-1 {
		t.Errorf("unequipped head-on NMACs: %d/%d", est.NMACs, est.Samples)
	}
	if fitness < 9000 {
		t.Errorf("fitness = %v, want ~10000", fitness)
	}
	if est.AlertRate != 0 {
		t.Errorf("unequipped aircraft alerted (rate %v)", est.AlertRate)
	}
}

// TestEquippedFitnessMuchLower: the working system drives the fitness far
// down on the same encounter — the signal the GA climbs against.
func TestEquippedFitnessMuchLower(t *testing.T) {
	fitness, est := evaluate(t, encounter.PresetHeadOn(), 1, quickFitness(), acasFactory(t))
	if est.NMACs != 0 {
		t.Errorf("equipped head-on NMACs: %d/%d", est.NMACs, est.Samples)
	}
	if fitness > 500 {
		t.Errorf("equipped fitness = %v, want small", fitness)
	}
	if est.AlertRate == 0 {
		t.Error("equipped system never alerted")
	}
}

// TestTailApproachBeatsHeadOnFitness reproduces the paper's core finding at
// unit-test scale: the tail-approach preset scores (much) higher fitness
// against the equipped system than the head-on preset.
func TestTailApproachBeatsHeadOnFitness(t *testing.T) {
	factory := acasFactory(t)
	cfg := quickFitness()
	cfg.SimsPerEncounter = 20
	headOn, headEst := evaluate(t, encounter.PresetHeadOn(), 5, cfg, factory)
	tail, tailEst := evaluate(t, encounter.PresetTailApproach(), 5, cfg, factory)
	if tail <= headOn {
		t.Errorf("tail fitness %v <= head-on fitness %v", tail, headOn)
	}
	if tailEst.PNMAC <= headEst.PNMAC {
		t.Errorf("tail NMAC rate %v <= head-on %v", tailEst.PNMAC, headEst.PNMAC)
	}
}

func TestEvaluateDeterministicPerSeed(t *testing.T) {
	m := encounter.PresetCrossing().Multi()
	fit := quickFitness()
	var got []float64
	for _, workers := range []int{1, 1, 4} {
		f, _, err := search.EvaluateEncounter(context.Background(), m, 77, fit, montecarlo.Unequipped, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
	}
	if got[0] != got[1] || got[0] != got[2] {
		t.Errorf("same seed, different fitness: %v", got)
	}
}

// TestSearchPipeline runs a miniature end-to-end GA search on one island
// against the unequipped baseline (cheap and guaranteed to find
// collisions) and checks the evaluation log the observer builds, the
// generation statistics and the top-K report read from the log.
func TestSearchPipeline(t *testing.T) {
	res, evals := runLogged(t, quickSpec(10, 3, 42), montecarlo.Unequipped)
	// Elites keep their fitness, so later generations evaluate only the
	// 8 bred children; the log still holds every generation's population.
	if res.NumEvaluations != 10+2*8 {
		t.Errorf("evaluations = %d, want 26", res.NumEvaluations)
	}
	if len(evals) != 30 {
		t.Fatalf("evaluation log has %d entries, want 30", len(evals))
	}
	for i, e := range evals {
		if e.Generation != i/10 || e.Index != i%10 || len(e.Genome) != encounter.NumParams {
			t.Fatalf("log entry %d = gen %d index %d (%d genes)", i, e.Generation, e.Index, len(e.Genome))
		}
	}
	history := res.Islands[0]
	if len(history) != 3 {
		t.Fatalf("per-generation stats = %d, want 3", len(history))
	}
	for g, gs := range history {
		if gs.Max != maxFitness(evals[10*g:10*(g+1)]) {
			t.Errorf("generation %d max %v disagrees with the log", g, gs.Max)
		}
	}
	top := core.TopEncounters(search.DefaultSpec().Ranges, evals, 5)
	if len(top) != 5 {
		t.Fatalf("top list = %d, want 5", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Fitness > top[i-1].Fitness {
			t.Fatal("top list not sorted")
		}
	}
	if res.Best.Fitness != top[0].Fitness {
		t.Errorf("best %v does not match top of list %v", res.Best.Fitness, top[0].Fitness)
	}
	// Against unequipped aircraft the search space is full of collisions:
	// the best must be near the maximum gain.
	if res.Best.Fitness < 5000 {
		t.Errorf("best fitness %v suspiciously low for unequipped search", res.Best.Fitness)
	}
}

func maxFitness(evals []ga.Evaluation) float64 {
	m := math.Inf(-1)
	for _, e := range evals {
		m = math.Max(m, e.Fitness)
	}
	return m
}

// TestRandomSearch checks the random baseline: the GA's spec run for one
// generation on one island of n individuals. Generation 0 is uniform over
// the genome bounds, so the baseline draws exactly the GA's own initial
// population first, scored with the GA's own fitness, and sweep seeds do
// not leak into it.
func TestRandomSearch(t *testing.T) {
	spec := quickSpec(6, 2, 7)
	_, unseeded := runLogged(t, spec, montecarlo.Unequipped)
	spec.SeedGenomes = [][]float64{encounter.PresetHeadOn().Vector()}
	gaRes, gaLog := runLogged(t, spec, montecarlo.Unequipped)

	rnd, rndLog := runLogged(t, spec.RandomBaseline(12), montecarlo.Unequipped)
	if rnd.NumEvaluations != 12 || len(rndLog) != 12 {
		t.Fatalf("evaluations = %d/%d, want 12", rnd.NumEvaluations, len(rndLog))
	}
	lo, hi := spec.Ranges.Bounds()
	bounds, err := ga.NewBounds(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range rndLog {
		if e.Generation != 0 || !bounds.Contains(e.Genome) {
			t.Fatalf("baseline entry %d: generation %d genome %v", i, e.Generation, e.Genome)
		}
	}
	if !reflect.DeepEqual(rndLog[:6], unseeded[:6]) {
		t.Error("baseline does not start with the GA's own uniform generation 0")
	}
	if reflect.DeepEqual(rndLog[:6], gaLog[:6]) {
		t.Error("sweep seed genomes leaked into the baseline")
	}
	if rnd.Best.Fitness <= 0 || gaRes.Best.Fitness <= 0 {
		t.Errorf("best fitness GA %v random %v", gaRes.Best.Fitness, rnd.Best.Fitness)
	}
}

func TestCompareSearchAgainstUnequipped(t *testing.T) {
	spec := quickSpec(8, 3, 5)
	cmp := core.ComparisonResult{Threshold: 9000}
	for s := uint64(0); s < 2; s++ {
		spec.Seed = 5 + s
		res, gaLog := runLogged(t, spec, montecarlo.Unequipped)
		_, rndLog := runLogged(t, spec.RandomBaseline(res.NumEvaluations), montecarlo.Unequipped)
		if len(rndLog) != res.NumEvaluations {
			t.Fatalf("baseline budget %d, want the GA's %d evaluations", len(rndLog), res.NumEvaluations)
		}
		cmp.Add(gaLog, rndLog)
	}
	if cmp.Seeds != 2 {
		t.Errorf("seeds = %d", cmp.Seeds)
	}
	if len(cmp.GAHits) != 2 || len(cmp.RandomHits) != 2 {
		t.Fatalf("hit records missing: %v / %v", cmp.GAHits, cmp.RandomHits)
	}
	// Against unequipped aircraft collisions abound: both arms find cases.
	gaFirst, rndFirst := cmp.MedianFirst()
	if gaFirst <= 0 || rndFirst <= 0 {
		t.Errorf("first-case medians = %v/%v, want positive", gaFirst, rndFirst)
	}
	gaHits, rndHits := cmp.MedianHits()
	if gaHits <= 0 || rndHits <= 0 {
		t.Errorf("hit medians = %v/%v, want positive", gaHits, rndHits)
	}
	if g := cmp.ConcentrationGain(); g <= 0 || math.IsNaN(g) {
		t.Errorf("concentration gain = %v", g)
	}
	for _, b := range cmp.GABest {
		if b < 9000 {
			t.Errorf("GA best %v below threshold against unequipped", b)
		}
	}
}

func TestComparisonResultEdgeCases(t *testing.T) {
	empty := core.ComparisonResult{}
	gaFirst, rndFirst := empty.MedianFirst()
	if gaFirst != -1 || rndFirst != -1 {
		t.Errorf("empty medians = %v/%v, want -1/-1", gaFirst, rndFirst)
	}
	if g := empty.ConcentrationGain(); g != 1 {
		t.Errorf("empty gain = %v, want 1", g)
	}
	gaOnly := core.ComparisonResult{GAHits: []float64{5}, RandomHits: []float64{0}}
	if g := gaOnly.ConcentrationGain(); !math.IsInf(g, 1) {
		t.Errorf("gain with zero random hits = %v, want +Inf", g)
	}
	both := core.ComparisonResult{GAHits: []float64{30}, RandomHits: []float64{10}}
	if g := both.ConcentrationGain(); g != 3 {
		t.Errorf("gain = %v, want 3", g)
	}
	// Add scores one repetition's logs against the threshold.
	var c core.ComparisonResult
	c.Threshold = 100
	c.Add([]ga.Evaluation{{Fitness: 10}, {Fitness: 150}, {Fitness: 200}}, []ga.Evaluation{{Fitness: 50}})
	if c.Seeds != 1 || c.GAHits[0] != 2 || c.RandomHits[0] != 0 || c.GABest[0] != 200 ||
		c.RandomBest[0] != 50 || len(c.GAFirst) != 1 || c.GAFirst[0] != 2 || len(c.RandomFirst) != 0 {
		t.Errorf("Add recorded %+v", c)
	}
}

func TestEvaluationsToReach(t *testing.T) {
	evals := []ga.Evaluation{
		{Fitness: 10}, {Fitness: 50}, {Fitness: 200}, {Fitness: 100},
	}
	if got := core.EvaluationsToReach(evals, 100); got != 3 {
		t.Errorf("core.EvaluationsToReach = %d, want 3", got)
	}
	if got := core.EvaluationsToReach(evals, 1e9); got != -1 {
		t.Errorf("unreachable threshold = %d, want -1", got)
	}
	if got := core.EvaluationsToReach(nil, 0); got != -1 {
		t.Errorf("empty log = %d, want -1", got)
	}
}
