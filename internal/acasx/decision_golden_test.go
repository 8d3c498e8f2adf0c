package acasx

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

var updateDecisionGolden = flag.Bool("update-decision-golden", false, "rewrite the executive decision golden file")

const decisionGoldenPath = "testdata/decision_golden.txt"

// decisionGoldenSteps is the number of decisions per (executive, K) stream.
const decisionGoldenSteps = 20000

// decider is the decision surface the golden pins: one cycle plus the
// advisory state it carries between cycles.
type decider interface {
	Decide(own uav.State, tracks []geom.Track, mask SenseMask) Decision
	Advisory() Advisory
	Alerts() int
	Reset()
}

// goldenEncounter is one straight-line encounter the decision stream walks
// through: the ownship and k intruders, advanced one decision period per
// step with track noise on top.
type goldenEncounter struct {
	own    uav.State
	intrud []geom.Track
}

// newGoldenEncounter draws a converging geometry: every intruder starts
// 300-2000 m out on a bearing that roughly heads at the ownship, within
// ±100 m vertically, so the stream crosses COC, alerting, holds and
// clear-of-conflict, with reversals from the per-step noise and masks.
func newGoldenEncounter(rng *rand.Rand, k int) goldenEncounter {
	e := goldenEncounter{
		own: uav.State{
			Pos: geom.Vec3{X: rng.Float64()*2000 - 1000, Y: rng.Float64()*2000 - 1000, Z: 500 + rng.Float64()*1000},
			Vel: geom.Velocity{Gs: 20 + rng.Float64()*40, Psi: rng.Float64() * 2 * math.Pi, Vs: rng.NormFloat64() * 2},
		},
		intrud: make([]geom.Track, k),
	}
	for j := range e.intrud {
		r := 300 + rng.Float64()*1700
		brg := rng.Float64() * 2 * math.Pi
		pos := geom.Vec3{
			X: e.own.Pos.X + r*math.Cos(brg),
			Y: e.own.Pos.Y + r*math.Sin(brg),
			Z: e.own.Pos.Z + rng.Float64()*200 - 100,
		}
		gs := 20 + rng.Float64()*40
		hdg := brg + math.Pi + rng.NormFloat64()*0.2
		e.intrud[j] = geom.Track{
			Pos: pos,
			Vel: geom.Vec3{X: gs * math.Cos(hdg), Y: gs * math.Sin(hdg), Z: rng.NormFloat64() * 2},
		}
	}
	return e
}

// step advances the encounter one second and returns the noisy tracks the
// executive sees this cycle in dst.
func (e *goldenEncounter) step(rng *rand.Rand, dst []geom.Track) {
	ov := e.own.VelVec()
	e.own.Pos = e.own.Pos.Add(ov)
	e.own.Vel.Vs += rng.NormFloat64() * 0.5
	for j := range e.intrud {
		tr := &e.intrud[j]
		tr.Pos = tr.Pos.Add(tr.Vel)
		tr.Vel.Z += rng.NormFloat64() * 0.5
		dst[j] = geom.Track{
			Pos: tr.Pos.Add(geom.Vec3{X: rng.NormFloat64() * 15, Y: rng.NormFloat64() * 15, Z: rng.NormFloat64() * 8}),
			Vel: tr.Vel.Add(geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64() * 0.5}),
		}
	}
}

// goldenMasks are the four coordination masks the stream draws from.
var goldenMasks = [4]SenseMask{{}, {BanUp: true}, {BanDown: true}, {BanUp: true, BanDown: true}}

// decisionDigest runs a seeded stream of decisionGoldenSteps decisions with
// k tracks through ex, carrying advisory state across decisions (a fresh
// encounter, and a Reset, every 40 decisions), and hashes every Decision
// field plus Alerts() and Advisory() after each cycle. It returns one
// golden line: the stream's label, counts that show what it covered, and
// the SHA-256.
func decisionDigest(label string, ex decider, k int, seed uint64) string {
	rng := rand.New(rand.NewPCG(seed, uint64(k)))
	h := sha256.New()
	tracks := make([]geom.Track, k)
	var enc goldenEncounter
	alerting, newAlerts, reversals, strengthenings := 0, 0, 0, 0
	for i := 0; i < decisionGoldenSteps; i++ {
		if i%40 == 0 {
			ex.Reset()
			enc = newGoldenEncounter(rng, k)
		}
		enc.step(rng, tracks)
		mask := goldenMasks[rng.IntN(len(goldenMasks))]
		d := ex.Decide(enc.own, tracks, mask)
		hashDecision(h, d)
		putUint64(h, uint64(ex.Alerts()))
		h.Write([]byte{byte(ex.Advisory())})
		if d.Alerting {
			alerting++
		}
		if d.NewAlert {
			newAlerts++
		}
		if d.Reversal {
			reversals++
		}
		if d.Strengthening {
			strengthenings++
		}
	}
	return fmt.Sprintf("%s k=%d decisions=%d alerting=%d new_alerts=%d reversals=%d strengthenings=%d sha256=%x",
		label, k, decisionGoldenSteps, alerting, newAlerts, reversals, strengthenings, h.Sum(nil))
}

func hashDecision(h hash.Hash, d Decision) {
	h.Write([]byte{byte(d.Advisory)})
	putUint64(h, math.Float64bits(d.Tau))
	putUint64(h, math.Float64bits(d.H))
	for _, b := range [...]bool{d.Alerting, d.NewAlert, d.Reversal, d.Strengthening} {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
}

func putUint64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// TestDecisionGolden pins the decision stream of both executives, one and
// three tracks, on the coarse table: every Decision field (Tau, H,
// Reversal and Strengthening included, which the episode goldens drop)
// and the carried advisory/alert state. Regenerate only on an intentional
// decision change, with -update-decision-golden. Verified on amd64 only:
// the package still compiles to fused multiply-adds on arm64
// (scripts/fma-baseline.txt), which may change the bits.
func TestDecisionGolden(t *testing.T) {
	table := getCoarseTable(t)
	var buf bytes.Buffer
	for _, k := range []int{1, 3} {
		point := NewLogic(table)
		belief, err := NewBeliefLogic(table, DefaultBeliefSigmas())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&buf, decisionDigest("point", point, k, 17))
		fmt.Fprintln(&buf, decisionDigest("belief", belief, k, 17))
	}
	if *updateDecisionGolden {
		if err := os.MkdirAll(filepath.Dir(decisionGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(decisionGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(decisionGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-decision-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("decision stream drifted from %s:\ngot:\n%swant:\n%s", decisionGoldenPath, buf.Bytes(), want)
	}
}
