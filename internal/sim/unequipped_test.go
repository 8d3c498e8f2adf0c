package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// requireSameResult fails unless two episode results are bit-identical.
func requireSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	f64 := math.Float64bits
	if got.NMAC != want.NMAC || f64(got.NMACTime) != f64(want.NMACTime) ||
		f64(got.MinSeparation) != f64(want.MinSeparation) ||
		f64(got.MinSeparationAt) != f64(want.MinSeparationAt) ||
		f64(got.MinHorizontal) != f64(want.MinHorizontal) ||
		f64(got.MinVertical) != f64(want.MinVertical) ||
		f64(got.OwnAlertTime) != f64(want.OwnAlertTime) ||
		f64(got.Duration) != f64(want.Duration) {
		t.Fatalf("%s: result drifted:\n got %+v\nwant %+v", label, got, want)
	}
	if len(got.AlertCounts) != len(want.AlertCounts) {
		t.Fatalf("%s: alert counts %v != %v", label, got.AlertCounts, want.AlertCounts)
	}
	for i := range got.AlertCounts {
		if got.AlertCounts[i] != want.AlertCounts[i] {
			t.Fatalf("%s: alert counts %v != %v", label, got.AlertCounts, want.AlertCounts)
		}
	}
}

// presetEpisode is one fixture episode: an encounter and its seed.
type presetEpisode struct {
	m    encounter.MultiParams
	seed uint64
}

// presetEpisodes is the bit-identity test fixture: every pairwise preset
// plus the multi-intruder presets, each with its own seed.
func presetEpisodes(t *testing.T) []presetEpisode {
	t.Helper()
	var eps []presetEpisode
	for i, name := range encounter.PresetNames() {
		p, err := encounter.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, presetEpisode{p.Multi(), uint64(100 + i)})
	}
	return append(eps,
		presetEpisode{encounter.MultiPresetSandwich(), 7},
		presetEpisode{encounter.MultiPresetConvergingPair(), 5},
		presetEpisode{encounter.MultiPresetCrossingStream(), 1234},
	)
}

// passNone delegates every call to NoSystem without being NoSystem, so
// the engine runs the full surveillance half of its decision cycle.
type passNone struct{ NoSystem }

// probe alerts from its first decision on and commands a vertical rate
// that is a continuous function of the first track it is handed, so any
// change in what it observes moves its trajectory.
type probe struct{ alerted bool }

func (p *probe) DecideTracks(now float64, own uav.State, tracks []geom.Track, c Constraint) Decision {
	return p.Decide(now, own, tracks[0].Pos, tracks[0].Vel, c)
}

func (p *probe) Decide(_ float64, own uav.State, pos, _ geom.Vec3, _ Constraint) Decision {
	d := Decision{
		Cmd:      uav.Command{HasVS: true, TargetVS: (own.Pos.Z - pos.Z) / 100},
		HasCmd:   true,
		Alerting: true,
		NewAlert: !p.alerted,
	}
	p.alerted = true
	return d
}

func (p *probe) Reset() { p.alerted = false }

// TestUnequippedSkipIdentity: skipping the surveillance of NoSystem
// aircraft must not move a bit. Every preset episode is flown with bare
// NoSystem and with the pass-through wrapper in each unequipped slot,
// under faults none/severe and tracker on/off; results and the recorded
// trajectory must be identical.
func TestUnequippedSkipIdentity(t *testing.T) {
	severe, err := fault.Preset("severe")
	if err != nil {
		t.Fatal(err)
	}
	table := getTable(t)
	// Each pattern equips the ownship and the intruders; nil marks an
	// unequipped slot.
	patterns := []struct {
		name      string
		own, intr func() System
	}{
		{"all-unequipped", nil, nil},
		{"own-probe", func() System { return &probe{} }, nil},
		{"intruders-probe", nil, func() System { return &probe{} }},
		{"own-acasx", func() System { return NewACASXU(table) }, nil},
	}
	build := func(k int, own, intr func() System, none System) []System {
		pick := func(f func() System) System {
			if f == nil {
				return none
			}
			return f()
		}
		sys := []System{pick(own)}
		for j := 1; j <= k; j++ {
			sys = append(sys, pick(intr))
		}
		return sys
	}
	eps := presetEpisodes(t)
	for _, fp := range []struct {
		name string
		p    fault.Profile
	}{{"none", fault.Profile{}}, {"severe", severe}} {
		for _, tracked := range []bool{true, false} {
			for _, pat := range patterns {
				label := fmt.Sprintf("faults=%s/tracker=%v/%s", fp.name, tracked, pat.name)
				cfg := DefaultRunConfig()
				cfg.Faults = fp.p
				cfg.UseTracker = tracked
				cfg.RecordTrajectory = true
				bare, err := NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				wrapped, err := NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ownAlerts, intrAlerts := 0, 0
				for i, ep := range eps {
					k := ep.m.NumIntruders()
					w, err := wrapped.Run(ep.m, build(k, pat.own, pat.intr, passNone{}), ep.seed)
					if err != nil {
						t.Fatal(err)
					}
					g, err := bare.Run(ep.m, build(k, pat.own, pat.intr, NoSystem{}), ep.seed)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, label, g, w)
					if !reflect.DeepEqual(g.Trajectory, w.Trajectory) {
						t.Fatalf("%s episode %d: trajectory drifted", label, i)
					}
					ownAlerts += w.OwnAlerts()
					intrAlerts += w.IntruderAlerts()
				}
				// The equipped slots must still see their peers: a skip
				// that silenced them would pass the identity checks.
				if (pat.own != nil) != (ownAlerts > 0) || (pat.intr != nil) != (intrAlerts > 0) {
					t.Fatalf("%s: %d ownship and %d intruder alerts", label, ownAlerts, intrAlerts)
				}

			}
		}
	}
}
