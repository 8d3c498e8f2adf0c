package sim_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/sim"
	"acasxval/internal/sys"
	"acasxval/internal/uav"
)

var updateEquippedGolden = flag.Bool("update-equipped-golden", false, "rewrite the equipped-encounter golden file")

// equippedGoldenRecord is one episode of the equipped golden: the scalar
// Result fields, the per-aircraft alert counts and an FNV-1a digest of the
// recorded trajectory.
type equippedGoldenRecord struct {
	Preset          string  `json:"preset"`
	System          string  `json:"system"`
	Seed            uint64  `json:"seed"`
	NMAC            bool    `json:"nmac"`
	NMACTime        float64 `json:"nmac_t"`
	MinSeparation   float64 `json:"min_sep"`
	MinSeparationAt float64 `json:"min_sep_t"`
	MinHorizontal   float64 `json:"min_h"`
	MinVertical     float64 `json:"min_v"`
	AlertCounts     []int   `json:"alerts"`
	OwnAlertTime    float64 `json:"own_alert_t"`
	Duration        float64 `json:"duration"`
	Points          int     `json:"points"`
	Trajectory      string  `json:"traj_fnv1a"`
}

// trajectoryDigest hashes the float bits of every recorded state, plus the
// alert flags and senses, in recording order.
func trajectoryDigest(traj []sim.TrajectoryPoint) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	state := func(s uav.State) {
		put(s.Pos.X)
		put(s.Pos.Y)
		put(s.Pos.Z)
		put(s.Vel.Gs)
		put(s.Vel.Psi)
		put(s.Vel.Vs)
	}
	bit := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, tp := range traj {
		put(tp.T)
		state(tp.Own)
		state(tp.Intruder)
		for _, s := range tp.MoreIntruders {
			state(s)
		}
		bit(tp.OwnAlerting)
		bit(tp.IntruderAlerting)
		h.Write([]byte{byte(int8(tp.OwnSense)), byte(int8(tp.IntruderSense))})
	}
	return h.Sum64()
}

// TestGoldenEquippedEpisodes pins the equipped episode engine: every
// pairwise preset (K=1) and every multi-intruder preset, flown by each
// built-in backend on the full logic table with trajectory recording on.
// Any change to the decision dispatch, a backend's single- or multi-track
// step, or the engine around them shows up as a byte diff. Regenerate with
// `go test ./internal/sim -run GoldenEquipped -update-equipped-golden`.
func TestGoldenEquippedEpisodes(t *testing.T) {
	ctx := sys.Context{Table: sim.SharedTable(t)}
	cfg := sim.DefaultRunConfig()
	cfg.RecordTrajectory = true

	type preset struct {
		name string
		m    encounter.MultiParams
	}
	var presets []preset
	for _, name := range encounter.PresetNames() {
		p, err := encounter.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		presets = append(presets, preset{name, p.Multi()})
	}
	for _, name := range encounter.MultiPresetNames() {
		m, err := encounter.MultiPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		presets = append(presets, preset{name, m})
	}

	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, pr := range presets {
		for _, name := range []string{"none", "acasx", "belief", "svo", "mpc", "apf"} {
			factory, err := sys.PairFactory(ctx, sys.Spec{Name: name})
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{1, 42, 777} {
				systems := sim.AppendSystemsFromPair(nil, factory, pr.m.NumIntruders())
				res, err := sim.RunEncounter(pr.m, systems, cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				rec := equippedGoldenRecord{
					Preset: pr.name, System: name, Seed: seed,
					NMAC: res.NMAC, NMACTime: res.NMACTime,
					MinSeparation: res.MinSeparation, MinSeparationAt: res.MinSeparationAt,
					MinHorizontal: res.MinHorizontal, MinVertical: res.MinVertical,
					AlertCounts:  res.AlertCounts,
					OwnAlertTime: res.OwnAlertTime, Duration: res.Duration,
					Points:     len(res.Trajectory),
					Trajectory: fmt.Sprintf("%016x", trajectoryDigest(res.Trajectory)),
				}
				if err := enc.Encode(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	got := out.Bytes()

	golden := filepath.Join("testdata", "golden_equipped.jsonl")
	if *updateEquippedGolden {
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
		t.Error("equipped episodes drifted from the golden file; " +
			"if the change is intentional rerun with -update-equipped-golden")
	}
}
