package campaign

import (
	"bytes"
	"strings"
	"testing"

	"acasxval/internal/config"
	"acasxval/internal/encounter"
)

// testSpec is a small table-free campaign: two cheap systems over a mixed
// scenario axis with two variants.
func testSpec() Spec {
	uncoordinated := false
	s := DefaultSpec()
	s.Name = "test"
	s.Presets = []string{"headon", "tailchase", "overtake"}
	s.ModelDraws = 2
	s.Systems = []string{"none", "svo"}
	s.Samples = 4
	s.Seed = 11
	s.Variants = []Variant{
		{Name: "default"},
		{Name: "nocoord", Coordination: &uncoordinated, Samples: 2},
	}
	return s
}

func TestRunDeterministic(t *testing.T) {
	systems := DefaultSystems(nil)
	var out1, out2 bytes.Buffer
	res1, err := Run(testSpec(), systems, &out1)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(testSpec(), systems, &out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Error("JSONL streams differ between identical runs")
	}
	if res1.SummaryTable() != res2.SummaryTable() {
		t.Error("summary tables differ between identical runs")
	}
	// (3 presets + 2 draws) x 2 systems x 2 variants.
	wantCells := 5 * 2 * 2
	if len(res1.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res1.Cells), wantCells)
	}
	if got := len(strings.Split(strings.TrimSpace(out1.String()), "\n")); got != wantCells {
		t.Errorf("JSONL has %d lines, want %d", got, wantCells)
	}
	// Per-variant sample counts: 4 for default, 2 for the override.
	for _, c := range res1.Cells {
		want := 4
		if c.Variant == "nocoord" {
			want = 2
		}
		if c.Samples != want {
			t.Errorf("cell %d (%s): %d samples, want %d", c.Index, c.Variant, c.Samples, want)
		}
	}
	if res1.TotalRuns != 5*2*4+5*2*2 {
		t.Errorf("TotalRuns = %d, want %d", res1.TotalRuns, 5*2*4+5*2*2)
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	systems := DefaultSystems(nil)
	serial := testSpec()
	serial.Parallelism = 1
	parallel := testSpec()
	parallel.Parallelism = 8
	var out1, out2 bytes.Buffer
	if _, err := Run(serial, systems, &out1); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(parallel, systems, &out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Error("JSONL stream depends on worker-pool size")
	}
}

// TestRunClampsOversizedParallelism: an absurd Parallelism is clamped to
// the CPU count (like BuildTable's worker pool) and still reproduces the
// serial byte stream exactly.
func TestRunClampsOversizedParallelism(t *testing.T) {
	systems := DefaultSystems(nil)
	serial := testSpec()
	serial.Parallelism = 1
	huge := testSpec()
	huge.Parallelism = 1 << 20
	var out1, out2 bytes.Buffer
	if _, err := Run(serial, systems, &out1); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(huge, systems, &out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Error("clamped worker pool changed the JSONL stream")
	}
}

func TestSummariesRankedByRiskRatio(t *testing.T) {
	res, err := Run(testSpec(), DefaultSystems(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 systems x 2 variants.
	if len(res.Summaries) != 4 {
		t.Fatalf("got %d summaries, want 4", len(res.Summaries))
	}
	byVariant := make(map[string][]SystemSummary)
	for _, s := range res.Summaries {
		byVariant[s.Variant] = append(byVariant[s.Variant], s)
	}
	for variant, group := range byVariant {
		for i := 1; i < len(group); i++ {
			a, b := group[i-1], group[i]
			if a.HasRiskRatio && b.HasRiskRatio && a.RiskRatio > b.RiskRatio {
				t.Errorf("variant %s: summaries not sorted by risk ratio: %v > %v",
					variant, a.RiskRatio, b.RiskRatio)
			}
		}
	}
	// The baseline's own ratio is 1 by construction.
	for _, s := range res.Summaries {
		if s.System == BaselineSystem && s.HasRiskRatio && s.RiskRatio != 1 {
			t.Errorf("baseline risk ratio = %v, want 1", s.RiskRatio)
		}
	}
}

func TestRunRejectsUnknownSystem(t *testing.T) {
	s := testSpec()
	s.Systems = []string{"none", "acasx"} // needs a table
	if _, err := Run(s, DefaultSystems(nil), nil); err == nil {
		t.Fatal("expected error for system missing from the set")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Presets = nil; s.ModelDraws = 0 },
		func(s *Spec) { s.Presets = []string{"no-such"} },
		func(s *Spec) { s.Systems = nil },
		func(s *Spec) { s.Systems = []string{"svo", "svo"} },
		func(s *Spec) { s.Samples = 0 },
		func(s *Spec) { s.Variants = []Variant{{Name: ""}} },
		func(s *Spec) { s.Variants = []Variant{{Name: "a"}, {Name: "a"}} },
		func(s *Spec) { s.Variants = []Variant{{Name: "a", Samples: -1}} },
		func(s *Spec) { s.ModelDraws = -1 },
	}
	for i, mutate := range bad {
		s := testSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted an invalid spec", i)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestFromConfig(t *testing.T) {
	text := `
campaign.name = parsed
campaign.presets = headon, overtake
campaign.model.draws = 3
campaign.systems = none, svo
campaign.samples = 6
campaign.seed = 99
run.coordination = false
campaign.variant.0.name = base
campaign.variant.1.name = fastscan
campaign.variant.1.decision.period = 0.5
campaign.variant.1.samples = 3
campaign.variant.1.tracker = false
`
	params, err := config.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "parsed" || s.ModelDraws != 3 || s.Samples != 6 || s.Seed != 99 {
		t.Errorf("scalar fields wrong: %+v", s)
	}
	if len(s.Presets) != 2 || s.Presets[0] != "headon" || s.Presets[1] != "overtake" {
		t.Errorf("presets = %v", s.Presets)
	}
	if len(s.Systems) != 2 {
		t.Errorf("systems = %v", s.Systems)
	}
	if s.Run.Coordination {
		t.Error("run.coordination = false not applied")
	}
	if len(s.Variants) != 2 {
		t.Fatalf("variants = %d, want 2", len(s.Variants))
	}
	v := s.Variants[1]
	if v.Name != "fastscan" || v.Samples != 3 {
		t.Errorf("variant 1 = %+v", v)
	}
	if v.DecisionPeriod == nil || *v.DecisionPeriod != 0.5 {
		t.Errorf("variant 1 decision period = %v", v.DecisionPeriod)
	}
	if v.UseTracker == nil || *v.UseTracker {
		t.Errorf("variant 1 tracker = %v", v.UseTracker)
	}
}

// TestFromConfigVariantKeyValidation: campaign.variant.* keys go through
// the same indexed-key check as the fault axis — a typoed field, a
// numbering gap or a malformed index is a hard parse error.
func TestFromConfigVariantKeyValidation(t *testing.T) {
	for text, want := range map[string]string{
		"campaign.variant.0.name = a\ncampaign.variant.0.sampels = 3\n": "unknown variant field",
		"campaign.variant.0.name = a\ncampaign.variant.2.name = b\n":    "orphaned variant key",
		"campaign.variant.0.samples = 3\n":                              "orphaned variant key",
		"campaign.variant.x.name = a\n":                                 "malformed variant key",
	} {
		params, err := config.Parse("campaign.presets = headon\ncampaign.systems = none\n" + text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FromConfig(params); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one mentioning %q", text, err, want)
		}
	}
}

func TestFromConfigPresetsAll(t *testing.T) {
	params, err := config.Parse("campaign.presets = all\ncampaign.systems = none\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Presets) != len(encounter.PresetNames()) {
		t.Errorf("presets = %v, want all %v", s.Presets, encounter.PresetNames())
	}
}

// The campaign must actually show the system working: on the conflict
// presets the SVO-equipped pair has to beat the unequipped baseline.
func TestCampaignSeparatesSystems(t *testing.T) {
	s := DefaultSpec()
	s.Presets = []string{"headon", "crossing"}
	s.Systems = []string{"none", "svo"}
	s.Samples = 8
	s.Seed = 3
	res, err := Run(s, DefaultSystems(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	var none, equipped *SystemSummary
	for i := range res.Summaries {
		switch res.Summaries[i].System {
		case "none":
			none = &res.Summaries[i]
		case "svo":
			equipped = &res.Summaries[i]
		}
	}
	if none == nil || equipped == nil {
		t.Fatal("missing summaries")
	}
	if none.PNMAC == 0 {
		t.Fatal("baseline NMAC probability is zero; conflict presets should collide")
	}
	if !equipped.HasRiskRatio || equipped.RiskRatio >= 1 {
		t.Errorf("equipped risk ratio = %v (has=%v), want < 1", equipped.RiskRatio, equipped.HasRiskRatio)
	}
}
