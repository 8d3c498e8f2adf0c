package sim

import (
	"sync"
	"testing"

	"acasxval/internal/acasx"
	"acasxval/internal/encounter"
	"acasxval/internal/stats"
)

var (
	revOnce  sync.Once
	revTable *acasx.Table
	revErr   error
)

func getRevisedTable(t *testing.T) *acasx.Table {
	t.Helper()
	revOnce.Do(func() {
		cfg := acasx.DefaultConfig()
		cfg.Workers = 8
		cfg.DMOD = 500
		cfg.UseVerticalTau = true
		revTable, revErr = acasx.BuildTable(cfg)
	})
	if revErr != nil {
		t.Fatal(revErr)
	}
	return revTable
}

// TestModelRevisionFixesTailApproach is the closed-loop version of the
// paper's improvement loop: the revised model resolves the GA-discovered
// tail-approach challenge that defeats the original system, without
// regressing on head-on encounters.
func TestModelRevisionFixesTailApproach(t *testing.T) {
	original := getTable(t)
	revised := getRevisedTable(t)
	cfg := DefaultRunConfig()

	rate := func(table *acasx.Table, p encounter.Params) (nmacs int, alerted int) {
		const runs = 40
		for k := 0; k < runs; k++ {
			res, err := RunEncounter(p.Multi(), []System{NewACASXU(table), NewACASXU(table)}, cfg, stats.DeriveSeed(33, k))
			if err != nil {
				t.Fatal(err)
			}
			if res.NMAC {
				nmacs++
			}
			if res.Alerted() {
				alerted++
			}
		}
		return nmacs, alerted
	}

	tail := encounter.PresetTailApproach()
	origNMACs, origAlerted := rate(original, tail)
	revNMACs, revAlerted := rate(revised, tail)
	if origNMACs < 35 {
		t.Errorf("original system NMACs %d/40 on tail approach, expected near-certain collision", origNMACs)
	}
	if origAlerted != 0 {
		t.Errorf("original system alerted %d times on tail approach, expected blind", origAlerted)
	}
	if revNMACs > 8 {
		t.Errorf("revised system NMACs %d/40 on tail approach, expected near zero", revNMACs)
	}
	if revAlerted < 35 {
		t.Errorf("revised system alerted only %d/40 on tail approach", revAlerted)
	}

	headOn := encounter.PresetHeadOn()
	if n, _ := rate(revised, headOn); n != 0 {
		t.Errorf("revised system regressed on head-on: %d/40 NMACs", n)
	}
}

// TestBeliefExecutiveInClosedLoop: the QMDP belief executive resolves the
// head-on under heavy sensor noise.
func TestBeliefExecutiveInClosedLoop(t *testing.T) {
	table := getTable(t)
	mk := func() System {
		s, err := NewACASXUBelief(table, acasx.DefaultBeliefSigmas())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cfg := DefaultRunConfig()
	cfg.Sensor.HorizontalPosSigma = 25
	cfg.Sensor.VelSigma = 1.5
	nmacs := 0
	const runs = 20
	for k := 0; k < runs; k++ {
		res, err := RunEncounter(encounter.PresetHeadOn().Multi(), []System{mk(), mk()}, cfg, stats.DeriveSeed(5, k))
		if err != nil {
			t.Fatal(err)
		}
		if res.NMAC {
			nmacs++
		}
	}
	if nmacs > 1 {
		t.Errorf("belief executive NMACs %d/%d under heavy noise", nmacs, runs)
	}
}

func TestNewACASXUBeliefValidation(t *testing.T) {
	table := getTable(t)
	if _, err := NewACASXUBelief(table, acasx.BeliefSigmas{H: -1}); err == nil {
		t.Error("bad sigmas accepted")
	}
}
