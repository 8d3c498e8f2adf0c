package acasxval

// Integration tests exercising the full pipeline through the public facade
// only: table generation -> closed-loop simulation -> fitness -> GA search
// -> analysis, plus the Monte-Carlo and grid2d paths.

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"acasxval/internal/core"
	"acasxval/internal/encounter"
	"acasxval/internal/geom"
	"acasxval/internal/grid2d"
	"acasxval/internal/sim"
	"acasxval/internal/uav"
)

var (
	facadeTableOnce sync.Once
	facadeTable     *Table
	facadeTableErr  error
)

func facadeLogicTable(tb testing.TB) *Table {
	tb.Helper()
	facadeTableOnce.Do(func() {
		cfg := DefaultTableConfig()
		cfg.Workers = 8
		facadeTable, facadeTableErr = BuildLogicTable(cfg)
	})
	if facadeTableErr != nil {
		tb.Fatal(facadeTableErr)
	}
	return facadeTable
}

func facadeFactory(tb testing.TB) SystemFactory {
	return acasxFactory(tb, facadeLogicTable(tb))
}

// unequipped is the no-avoidance pair factory.
func unequipped() (System, System) { return NoAvoidance(), NoAvoidance() }

// runPairwise flies the pairwise encounter p (the K=1 case) with a fresh
// system pair from factory.
func runPairwise(tb testing.TB, p EncounterParams, factory SystemFactory, cfg RunConfig, seed uint64) RunResult {
	tb.Helper()
	own, intr := factory()
	res, err := RunEncounter(p.Multi(), []System{own, intr}, cfg, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestQuickstartFlow(t *testing.T) {
	res := runPairwise(t, PresetHeadOn(), facadeFactory(t), DefaultRunConfig(), 42)
	if res.NMAC {
		t.Error("quickstart head-on collided")
	}
	if !res.Alerted() {
		t.Error("quickstart head-on never alerted")
	}
}

func TestTableSaveLoadThroughFacade(t *testing.T) {
	cfg := CoarseTableConfig()
	cfg.Workers = 4
	table, err := BuildLogicTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "logic.acxt")
	if err := table.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLogicTable(path)
	if err != nil {
		t.Fatal(err)
	}
	// A loaded table must drive the logic identically.
	p := PresetHeadOn()
	a := runPairwise(t, p, acasxFactory(t, table), DefaultRunConfig(), 9)
	b := runPairwise(t, p, acasxFactory(t, loaded), DefaultRunConfig(), 9)
	if a.MinSeparation != b.MinSeparation || a.NMAC != b.NMAC {
		t.Error("loaded table behaves differently from built table")
	}
}

// TestEndToEndSearchFindsTailApproaches is the integration version of the
// paper's section VII experiment at reduced scale: the GA search (one
// island, the paper's single population) against the equipped system
// should surface high-fitness encounters, and the fitness should climb
// across generations.
func TestEndToEndSearchFindsTailApproaches(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end search is slow")
	}
	spec := DefaultSearchSpec()
	spec.Islands = 1
	spec.GA.PopulationSize = 30
	spec.GA.Generations = 4
	spec.Seed = 20
	spec.Fitness.SimsPerEncounter = 10
	var evals []Evaluation
	res, err := RunSearch(spec, facadeFactory(t), SearchOptions{Observer: LogSearchEvaluations(&evals)})
	if err != nil {
		t.Fatal(err)
	}
	history := res.Islands[0]
	first := history[0]
	last := history[len(history)-1]
	if last.Mean <= first.Mean {
		t.Errorf("fitness did not climb: gen0 mean %v, final mean %v", first.Mean, last.Mean)
	}
	if res.Best.Fitness < 2000 {
		t.Errorf("search failed to find a challenging encounter: best %v", res.Best.Fitness)
	}
	// Among the top discoveries, tail approaches dominate (the paper's
	// "most of them are tail approach situations"). The remainder are
	// high-vertical-rate convergences, the other genuine weak spot.
	tally := core.Tally(core.TopEncounters(spec.Ranges, evals, 10))
	if tally.Dominant() != encounter.TailApproach {
		t.Errorf("dominant discovered class = %v (%s), want tail-approach",
			tally.Dominant(), tally)
	}
}

func TestSVOThroughFacade(t *testing.T) {
	factory, err := NewSystemFactory(SystemContext{}, SystemSpec{Name: "svo"})
	if err != nil {
		t.Fatal(err)
	}
	if res := runPairwise(t, PresetHeadOn(), factory, DefaultRunConfig(), 4); res.NMAC {
		t.Error("SVO head-on collided")
	}
}

func TestMonteCarloThroughFacade(t *testing.T) {
	cfg := DefaultMonteCarloConfig()
	cfg.Samples = 60
	est, err := EstimateRisk(DefaultMultiEncounterModel(1), facadeFactory(t), cfg, RareEventSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != 60 {
		t.Errorf("samples = %d", est.Samples)
	}
	if est.PNMAC > 0.3 {
		t.Errorf("equipped P(NMAC) = %v, suspiciously high", est.PNMAC)
	}
}

func TestGrid2DThroughFacade(t *testing.T) {
	m, err := NewGrid2D(DefaultGrid2DConfig())
	if err != nil {
		t.Fatal(err)
	}
	lt, err := SolveGrid2D(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := lt.Action(grid2d.State{YO: 0, XR: 2, YI: 0}); got == grid2d.Level {
		t.Error("grid2d logic levels off before an imminent collision")
	}
}

func TestClassifyThroughFacade(t *testing.T) {
	if Classify(PresetHeadOn()).Category != encounter.HeadOn {
		t.Error("head-on preset misclassified")
	}
	if Classify(PresetTailApproach()).Category != encounter.TailApproach {
		t.Error("tail preset misclassified")
	}
}

func TestUnequippedFacade(t *testing.T) {
	none := NoAvoidance()
	res, err := RunEncounter(PresetHeadOn().Multi(), []System{none, none}, DefaultRunConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alerted() {
		t.Error("unequipped aircraft alerted")
	}
}

func TestNewSystemThroughFacade(t *testing.T) {
	table := facadeLogicTable(t)
	ctx := SystemContext{Table: table}
	// A closing intruder 600 m ahead, slightly above: close enough for
	// every equipped backend to alert.
	own := uav.State{Pos: geom.Vec3{Z: 300}, Vel: geom.Velocity{Gs: 30}}
	track := geom.Track{Pos: geom.Vec3{X: 600, Z: 310}, Vel: geom.Vec3{X: -28}}
	for _, name := range SystemNames() {
		a, err := NewSystem(ctx, SystemSpec{Name: name})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		b, err := NewSystem(ctx, SystemSpec{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		// The engine's DecideTracks step must agree with the single-track
		// Decide on a pairwise (one-track) cycle.
		got := a.DecideTracks(0, own, []geom.Track{track}, sim.Constraint{})
		want := b.Decide(0, own, track.Pos, track.Vel, sim.Constraint{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DecideTracks %+v, Decide %+v", name, got, want)
		}
	}
	if _, err := NewSystem(ctx, SystemSpec{Name: "bogus"}); err == nil {
		t.Error("bogus system name constructed")
	}
}
