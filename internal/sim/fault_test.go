package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/uav"
)

var updateFaultGolden = flag.Bool("update-fault-golden", false, "rewrite the faulted-encounter golden file")

// quietConfig returns the deterministic-dynamics configuration the fault
// tests compare under: sensor noise stays on (it is seeded), vehicle
// disturbances off so trajectory assertions are crisp.
func quietConfig() RunConfig {
	cfg := DefaultRunConfig()
	cfg.OwnUAV.VerticalNoise, cfg.OwnUAV.SpeedNoise, cfg.OwnUAV.HeadingNoise = 0, 0, 0
	cfg.IntruderUAV = cfg.OwnUAV
	return cfg
}

func runPair(t *testing.T, cfg RunConfig, seed uint64) Result {
	t.Helper()
	own := &evader{rangeM: 2500}
	intr := &evader{rangeM: 2500}
	res, err := RunEncounter(encounter.PresetHeadOn().Multi(), []System{own, intr}, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultsEqual compares two results including trajectories, bit-for-bit.
func resultsEqual(a, b Result) bool {
	return reflect.DeepEqual(a, b)
}

// TestNeutralFaultProfileIsBitIdentical: a profile that is enabled (so
// the whole fault path runs and the fault streams are seeded and drawn)
// but degrades nothing must reproduce the fault-free run exactly —
// proving fault draws never leak into the dynamics or sensor streams.
func TestNeutralFaultProfileIsBitIdentical(t *testing.T) {
	cfg := quietConfig()
	cfg.RecordTrajectory = true
	base := runPair(t, cfg, 42)

	faulted := cfg
	faulted.Faults = fault.Profile{
		// The channel transitions (and draws twice per observation) but
		// an in-burst drop probability of 0 never loses a report.
		BurstEnter: 0.5, BurstExit: 0.5, BurstDrop: 0,
		DetectionRange:   1e9, // far beyond the encounter
		CommLossStart:    1e6, // window never reached
		CommLossDuration: 1,
	}
	if !faulted.Faults.Enabled() {
		t.Fatal("neutral profile should count as enabled")
	}
	got := runPair(t, faulted, 42)
	if !resultsEqual(base, got) {
		t.Fatalf("neutral fault profile perturbed the run:\nbase %+v\ngot  %+v", trim(base), trim(got))
	}
}

// trim drops the trajectory for readable failure messages.
func trim(r Result) Result { r.Trajectory = nil; return r }

// TestFaultedRunDeterministic: the same faulted configuration and seed
// reproduce the identical result, and a different seed does not.
func TestFaultedRunDeterministic(t *testing.T) {
	cfg := quietConfig()
	cfg.RecordTrajectory = true
	p, err := fault.Preset("moderate")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = p
	a := runPair(t, cfg, 7)
	b := runPair(t, cfg, 7)
	if !resultsEqual(a, b) {
		t.Fatal("same seed produced different faulted runs")
	}
	c := runPair(t, cfg, 8)
	if resultsEqual(a, c) {
		t.Fatal("different seeds produced identical faulted runs (fault stream not seeded?)")
	}
}

// TestDetectionRangeBlindsOwnship: a detection range shorter than the
// initial separation delays the first alert; a vanishing range prevents
// any alert and the head-on collides, mirroring the total-dropout case.
func TestDetectionRangeBlindsOwnship(t *testing.T) {
	cfg := quietConfig()
	base := runPair(t, cfg, 3)
	if !base.Alerted() || base.NMAC {
		t.Fatalf("baseline evader encounter should alert and avoid (alerted=%v nmac=%v)", base.Alerted(), base.NMAC)
	}

	blind := cfg
	blind.Faults = fault.Profile{DetectionRange: 1}
	res := runPair(t, blind, 3)
	if !res.NMAC {
		t.Error("blind head-on should collide")
	}
	// The only time the intruder is inside a 1 m detection range is the
	// collision itself, so any alert must come far too late to matter.
	if res.OwnAlertTime >= 0 && res.OwnAlertTime < res.NMACTime-1 {
		t.Errorf("aircraft alerted at %v with a 1 m detection range (NMAC at %v)", res.OwnAlertTime, res.NMACTime)
	}

	limited := cfg
	limited.Faults = fault.Profile{DetectionRange: 2000}
	lres := runPair(t, limited, 3)
	if !lres.Alerted() {
		t.Fatal("2 km detection range should still allow an alert")
	}
	if lres.OwnAlertTime <= base.OwnAlertTime {
		t.Errorf("range-limited first alert at %v, want later than baseline %v", lres.OwnAlertTime, base.OwnAlertTime)
	}
}

// TestLatencyDelaysAlert: acting on stale state postpones the first
// alert by roughly the configured latency.
func TestLatencyDelaysAlert(t *testing.T) {
	cfg := quietConfig()
	base := runPair(t, cfg, 3)

	lagged := cfg
	lagged.Faults = fault.Profile{Latency: 4}
	res := runPair(t, lagged, 3)
	if !res.Alerted() {
		t.Fatal("lagged aircraft never alerted")
	}
	if res.OwnAlertTime <= base.OwnAlertTime {
		t.Errorf("lagged first alert at %v, want later than baseline %v", res.OwnAlertTime, base.OwnAlertTime)
	}
}

// TestTotalBurstForcesCoastExpiryAndCOC: a channel that is always bad
// with certain loss blinds both aircraft completely; the tracker coasts,
// expires, and the logic stays clear-of-conflict all the way in.
func TestTotalBurstForcesCoastExpiryAndCOC(t *testing.T) {
	cfg := quietConfig()
	cfg.Faults = fault.Profile{BurstEnter: 1, BurstExit: 1e-12, BurstDrop: 1}
	res := runPair(t, cfg, 5)
	if res.Alerted() {
		t.Error("aircraft alerted under total burst loss")
	}
	if !res.NMAC {
		t.Error("blind head-on should collide")
	}
}

// TestCommLossRevertsToUncoordinated: outside the scheduled outage the
// evaders coordinate (opposite senses); a window covering the whole
// encounter removes the constraint and both claim the same sense.
func TestCommLossRevertsToUncoordinated(t *testing.T) {
	cfg := quietConfig()
	cfg.RecordTrajectory = true

	base := runPair(t, cfg, 9)
	sawCoordinated := false
	for _, pt := range base.Trajectory {
		if pt.OwnSense != SenseNone && pt.IntruderSense != SenseNone {
			sawCoordinated = true
			if pt.OwnSense == pt.IntruderSense {
				t.Fatalf("same-sense maneuvers at t=%v with the link up", pt.T)
			}
		}
	}
	if !sawCoordinated {
		t.Fatal("baseline evaders never alerted simultaneously; pick another seed")
	}

	lost := cfg
	lost.Faults = fault.Profile{CommLossStart: 0, CommLossDuration: 1e6}
	res := runPair(t, lost, 9)
	sawUncoordinated := false
	for _, pt := range res.Trajectory {
		if pt.OwnSense != SenseNone && pt.IntruderSense != SenseNone {
			if pt.OwnSense != pt.IntruderSense {
				t.Fatalf("opposite senses at t=%v during a comm-loss window", pt.T)
			}
			sawUncoordinated = true
		}
	}
	if !sawUncoordinated {
		t.Fatal("comm-loss evaders never alerted simultaneously")
	}
}

// faultGoldenRecord is one decision-period sample of the pinned faulted
// encounter.
type faultGoldenRecord struct {
	T         float64    `json:"t"`
	Own       [3]float64 `json:"own"`
	Intruder  [3]float64 `json:"intr"`
	OwnAlert  bool       `json:"own_alert"`
	IntrAlert bool       `json:"intr_alert"`
	OwnSense  int        `json:"own_sense"`
	IntrSense int        `json:"intr_sense"`
}

// TestGoldenFaultedEncounter pins the full trajectory of one encounter
// under a composite fault profile (burst + range limit + latency + comm
// loss) as JSONL. Any unintended change to fault-stream derivation,
// channel stepping, delay-queue timing or the comm-loss mask shows up as
// a byte diff. Regenerate with
// `go test ./internal/sim -run GoldenFaulted -update-fault-golden`.
func TestGoldenFaultedEncounter(t *testing.T) {
	cfg := quietConfig()
	cfg.Dt = 0.5
	cfg.Overtime = 10
	cfg.RecordTrajectory = true
	cfg.Faults = fault.Profile{
		BurstEnter: 0.15, BurstExit: 0.35, BurstDrop: 0.9,
		DetectionRange:   3500,
		Latency:          2,
		CommLossStart:    12,
		CommLossDuration: 8,
	}
	res := runPair(t, cfg, 20260808)

	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, pt := range res.Trajectory {
		rec := faultGoldenRecord{
			T:         pt.T,
			Own:       [3]float64{pt.Own.Pos.X, pt.Own.Pos.Y, pt.Own.Pos.Z},
			Intruder:  [3]float64{pt.Intruder.Pos.X, pt.Intruder.Pos.Y, pt.Intruder.Pos.Z},
			OwnAlert:  pt.OwnAlerting,
			IntrAlert: pt.IntruderAlerting,
			OwnSense:  int(pt.OwnSense),
			IntrSense: int(pt.IntruderSense),
		}
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := out.Bytes()

	golden := filepath.Join("testdata", "golden_faulted.jsonl")
	if *updateFaultGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("faulted-encounter trajectory drifted from the golden file; " +
			"if the change is intentional rerun with -update-fault-golden")
	}
}

// TestFaultConfigValidationInRun: RunConfig.Validate must reject invalid
// fault profiles.
func TestFaultConfigValidationInRun(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Faults.BurstEnter = 2
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid fault profile passed RunConfig validation")
	}
}

// TestFaultedRunnerReuse: a runner switching between faulted and
// fault-free configurations must keep both paths bit-stable (stale fault
// state from a faulted episode must not leak into a later fault-free one
// or the next faulted one).
func TestFaultedRunnerReuse(t *testing.T) {
	cfg := quietConfig()
	faulted := cfg
	p, err := fault.Preset("severe")
	if err != nil {
		t.Fatal(err)
	}
	faulted.Faults = p

	fresh := func(c RunConfig, seed uint64) Result {
		return runPair(t, c, seed)
	}

	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(c RunConfig, seed uint64) Result {
		t.Helper()
		if err := r.Reconfigure(c); err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(encounter.PresetHeadOn().Multi(), []System{&evader{rangeM: 2500}, &evader{rangeM: 2500}}, seed)
		if err != nil {
			t.Fatal(err)
		}
		res.AlertCounts = append([]int(nil), res.AlertCounts...)
		return res
	}

	seq := []struct {
		cfg  RunConfig
		seed uint64
	}{{cfg, 1}, {faulted, 1}, {cfg, 1}, {faulted, 2}, {faulted, 1}}
	for i, s := range seq {
		got := run(s.cfg, s.seed)
		want := fresh(s.cfg, s.seed)
		want.AlertCounts = append([]int(nil), want.AlertCounts...)
		if !resultsEqual(got, want) {
			t.Fatalf("step %d: reused runner diverged from fresh runner:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}

// TestFaultsWithoutTracker: the fault layer also degrades the raw-report
// path (UseTracker false) without error.
func TestFaultsWithoutTracker(t *testing.T) {
	cfg := quietConfig()
	cfg.UseTracker = false
	cfg.Sensor = uav.SensorModel{}
	cfg.Faults = fault.Profile{Latency: 3, DetectionRange: 4000}
	res := runPair(t, cfg, 13)
	if res.Duration <= 0 {
		t.Fatal("faulted trackerless run did not advance")
	}
}
