package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/montecarlo"
	"acasxval/internal/stats"
	"acasxval/internal/sys"
)

// cpLevel is the two-sided confidence level of the reference check. It is
// set so that a correct program fails a run by chance about once in 10^4
// runs even with a hundred checked estimates per run, while an estimate
// that moved by several standard errors still fails.
const cpLevel = 1 - 1e-6

// reference holds brute-force P(NMAC) references for the estimates the
// workloads check, recomputed with --reference. Keys name the workload,
// the system and, for campaign cells, the scenario and the fault point.
type reference struct {
	Note         string             `json:"note"`
	Episodes     int                `json:"episodes_per_mc_entry"`
	CellEpisodes int                `json:"episodes_per_cell_entry"`
	PNMAC        map[string]float64 `json:"p_nmac"`
}

func loadReference(path string) (reference, error) {
	var ref reference
	data, err := os.ReadFile(path)
	if err != nil {
		return ref, fmt.Errorf("reading reference: %w", err)
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return ref, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(ref.PNMAC) == 0 {
		return ref, fmt.Errorf("%s holds no references", path)
	}
	return ref, nil
}

// checkReference fails the run when the Clopper–Pearson interval of nmacs
// successes in trials and the interval of the reference for key are
// disjoint. The reference is itself a finite brute-force sample, so its
// own interval stands in for it: a reference of exactly 0 or 1 must not
// fail a run over one rare event.
func (r *run) checkReference(key string, nmacs, trials int) {
	p, ok := r.ref.PNMAC[key]
	if !ok {
		r.check(false, "no reference P(NMAC) for %s", key)
		return
	}
	n := r.ref.CellEpisodes
	if strings.HasPrefix(key, "mc-pairwise/") {
		n = r.ref.Episodes
	}
	ref := stats.ClopperPearsonCI(int(math.Round(p*float64(n))), n, cpLevel)
	iv := stats.ClopperPearsonCI(nmacs, trials, cpLevel)
	r.check(iv.Lo <= ref.Hi && ref.Lo <= iv.Hi,
		"%s: P(NMAC) %d/%d, interval [%.5g, %.5g], is disjoint from the reference %.5g [%.5g, %.5g]",
		key, nmacs, trials, iv.Lo, iv.Hi, p, ref.Lo, ref.Hi)
}

// cellKey names the reference of a classic campaign cell: its scenario,
// system and fault point.
func cellKey(scenario, system, fault string) string {
	if fault == "" {
		fault = "none"
	}
	return "campaign-mix/" + scenario + "/" + system + "/" + fault
}

// digest hashes the JSON encoding of v (floats encode exactly).
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// referenceSeed seeds the reference estimates; it is unrelated to any
// benchmark seed.
const referenceSeed = 0x5EEDCAFE

// referenceEpisodes and referenceCellEpisodes are the brute-force budgets
// of each mc-pairwise and each campaign-cell reference.
const (
	referenceEpisodes     = 100000
	referenceCellEpisodes = 20000
)

// writeReference recomputes every reference P(NMAC) by brute force on all
// CPUs and writes the reference file.
func writeReference(w io.Writer) error {
	table, err := buildTable()
	if err != nil {
		return err
	}
	set := campaign.DefaultSystems(table)
	ref := reference{
		Note: "Brute-force P(NMAC) references for the perfbench reference check; " +
			"recompute with: bash perfbench/run.sh --reference > perfbench/reference.json",
		Episodes:     referenceEpisodes,
		CellEpisodes: referenceCellEpisodes,
		PNMAC:        map[string]float64{},
	}
	evaluate := func(key string, model montecarlo.EncounterModel, factory montecarlo.SystemFactory, cfg montecarlo.Config) error {
		cfg.Samples = referenceEpisodes
		cfg.Seed = referenceSeed
		cfg.Parallelism = runtime.NumCPU()
		est, err := montecarlo.Evaluate(model, factory, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		ref.PNMAC[key] = est.PNMAC
		fmt.Fprintf(os.Stderr, "%-36s %.6g (%d/%d)\n", key, est.PNMAC, est.NMACs, est.Samples)
		return nil
	}
	cfg := montecarlo.DefaultConfig()
	for _, name := range mcSystems {
		if err := evaluate("mc-pairwise/"+name, montecarlo.DefaultEncounterModel(), set[name], cfg); err != nil {
			return err
		}
	}
	spec, err := parseCampaign(campaignSpecText(0))
	if err != nil {
		return err
	}
	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	for _, c := range cells {
		if c.Estimator != "" {
			continue
		}
		cfg := montecarlo.DefaultConfig()
		cfg.Run = spec.Run
		cfg.Run.Faults = c.Fault.Profile
		cfg.Samples = referenceCellEpisodes
		cfg.Seed = referenceSeed
		cfg.Parallelism = runtime.NumCPU()
		key := cellKey(c.Scenario, c.System, c.Fault.Name)
		est, err := montecarlo.EvaluateMulti(montecarlo.MultiPointModel(c.Params), set[c.System], cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		ref.PNMAC[key] = est.PNMAC
		fmt.Fprintf(os.Stderr, "%-36s %.6g (%d/%d)\n", key, est.PNMAC, est.NMACs, est.Samples)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(ref)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parseCampaign parses campaign parameter text.
func parseCampaign(text string) (campaign.Spec, error) {
	c, err := config.Parse(text)
	if err != nil {
		return campaign.Spec{}, err
	}
	return campaign.FromConfig(c)
}

// pairFactory builds a registered backend's default pairwise factory.
func pairFactory(ctx sys.Context, name string) (montecarlo.SystemFactory, error) {
	f, err := sys.PairFactory(ctx, sys.Spec{Name: name})
	if err != nil {
		return nil, err
	}
	return montecarlo.SystemFactory(f), nil
}
