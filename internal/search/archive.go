package search

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"acasxval/internal/campaign"
	"acasxval/internal/durable"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/ga"
	"acasxval/internal/stats"
)

// ArchiveEntry is one archived dangerous encounter: a discovered genome
// whose fitness crossed the risk threshold, with the evaluation evidence
// and geometry classification needed to triage it. Entries serialize as one
// JSON object per line.
type ArchiveEntry struct {
	// Name uniquely labels the entry ("danger/0003"); reloaded archives
	// use it as the campaign scenario name.
	Name string `json:"name"`
	// Fitness is the paper's fitness value (collision gain over mean
	// separation).
	Fitness float64 `json:"fitness"`
	// PNMAC is the fraction of the encounter's simulations that ended in
	// a near mid-air collision.
	PNMAC float64 `json:"p_nmac"`
	// MeanMinSep averages the per-run minimum separations, metres.
	MeanMinSep float64 `json:"mean_min_sep_m"`
	// Geometry is the encounter.Classify category label.
	Geometry string `json:"geometry"`
	// Island, Generation and Index locate the discovery in the search.
	Island     int `json:"island"`
	Generation int `json:"generation"`
	Index      int `json:"index"`
	// Params is the encounter parameter vector in genome order (geometry
	// only — fault genes never enter the dedup distance).
	Params []float64 `json:"params"`
	// Fault is the co-evolved degradation profile in gene order
	// (fault.Genes); empty for clean-surveillance and fixed-profile
	// searches, so their archives keep the historical byte stream.
	Fault []float64 `json:"fault,omitempty"`
}

// MultiEncounterParams decodes the entry's parameter vector as a
// one-ownship, K-intruder encounter (pairwise entries decode as K = 1).
func (e ArchiveEntry) MultiEncounterParams() (encounter.MultiParams, error) {
	return encounter.MultiFromVector(e.Params)
}

// FaultProfile decodes the entry's co-evolved degradation profile: the
// zero profile when the entry was found under clean surveillance.
func (e ArchiveEntry) FaultProfile() (fault.Profile, error) {
	if len(e.Fault) == 0 {
		return fault.Profile{}, nil
	}
	if len(e.Fault) != fault.GeneCount {
		return fault.Profile{}, fmt.Errorf("search: archive entry %q has %d fault genes, want %d",
			e.Name, len(e.Fault), fault.GeneCount)
	}
	return fault.FromGenes(e.Fault), nil
}

// validate checks an entry's structural invariants (shared by the JSONL
// loader and the checkpoint decoder).
func (e ArchiveEntry) validate() error {
	if e.Name == "" {
		return fmt.Errorf("search: archive entry with empty name")
	}
	if len(e.Params) == 0 || len(e.Params)%encounter.NumParams != 0 {
		return fmt.Errorf("search: archive entry %q has %d params, want a positive multiple of %d",
			e.Name, len(e.Params), encounter.NumParams)
	}
	if !stats.AllFinite(e.Params...) {
		return fmt.Errorf("search: archive entry %q has a non-finite param", e.Name)
	}
	if len(e.Fault) != 0 && len(e.Fault) != fault.GeneCount {
		return fmt.Errorf("search: archive entry %q has %d fault genes, want %d (or none)",
			e.Name, len(e.Fault), fault.GeneCount)
	}
	if !stats.AllFinite(e.Fault...) {
		return fmt.Errorf("search: archive entry %q has a non-finite fault gene", e.Name)
	}
	if !stats.AllFinite(e.Fitness) {
		return fmt.Errorf("search: archive entry %q: fitness is %v", e.Name, e.Fitness)
	}
	return nil
}

// Archive is the deduplicated store of dangerous encounters accumulated by
// a search. Entries are kept in discovery order; a candidate within
// MinDistance (normalized encounter-geometry distance) of an existing entry
// replaces it when fitter and is dropped otherwise, so the archive stays a
// spread of distinct failure geometries rather than one cluster of
// near-identical collisions.
type Archive struct {
	threshold   float64
	minDistance float64
	scale       ga.DistanceScale
	seq         int
	entries     []ArchiveEntry
}

// NewArchive builds an empty archive over the given search bounds.
func NewArchive(threshold, minDistance float64, bounds ga.Bounds) *Archive {
	return &Archive{
		threshold:   threshold,
		minDistance: minDistance,
		scale:       ga.NewDistanceScale(bounds),
	}
}

// Add offers a candidate to the archive. The entry's Name is assigned by
// the archive. A candidate within MinDistance of existing entries is
// admitted only when it is fitter than all of them; it then takes over the
// first such entry's slot and the other near entries merge into it (they
// are removed), so no two archived geometries ever sit closer than
// MinDistance. Reports whether the archive changed.
func (a *Archive) Add(e ArchiveEntry) bool {
	if e.Fitness < a.threshold {
		return false
	}
	var near []int
	for i := range a.entries {
		if a.scale.Distance(e.Params, a.entries[i].Params) < a.minDistance {
			near = append(near, i)
		}
	}
	if len(near) == 0 {
		e.Name = fmt.Sprintf("danger/%04d", a.seq)
		a.seq++
		a.entries = append(a.entries, e)
		return true
	}
	for _, i := range near {
		if e.Fitness <= a.entries[i].Fitness {
			return false
		}
	}
	// Fitter than every neighbor: keep the first slot's identity, drop the
	// rest (back to front so the indices stay valid).
	e.Name = a.entries[near[0]].Name
	a.entries[near[0]] = e
	for k := len(near) - 1; k >= 1; k-- {
		i := near[k]
		a.entries = append(a.entries[:i], a.entries[i+1:]...)
	}
	return true
}

// Len reports the number of archived encounters.
func (a *Archive) Len() int { return len(a.entries) }

// Entries returns a copy of the archived encounters in discovery order, so
// callers may sort or mutate the result without disturbing the archive's
// canonical (byte-reproducible) ordering.
func (a *Archive) Entries() []ArchiveEntry {
	return append([]ArchiveEntry(nil), a.entries...)
}

// WriteJSONL writes the archive as one JSON record per line, in discovery
// order. The byte stream is identical for identical search runs.
func (a *Archive) WriteJSONL(w io.Writer) error {
	for _, e := range a.entries {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("search: write archive: %w", err)
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return fmt.Errorf("search: write archive: %w", err)
		}
	}
	return nil
}

// readJSONL scans r line by line, handing every non-empty line (with its
// 1-based line number) to decode. Shared by the archive and sweep-seed
// loaders so tail handling and error wording cannot drift. A half-written
// trailing line — the signature of a writer killed mid-record — is skipped
// with a warning on stderr instead of failing the whole load; corrupt
// interior lines stay fatal (see durable.ScanJSONL).
func readJSONL(r io.Reader, what string, decode func(line int, data []byte) error) error {
	truncated, err := durable.ScanJSONL(r, decode)
	if err != nil {
		return err
	}
	if truncated {
		fmt.Fprintf(os.Stderr, "warning: %s ends in a half-written line (writer killed mid-record?); skipped\n", what)
	}
	return nil
}

// LoadArchive parses a JSONL archive stream produced by WriteJSONL.
func LoadArchive(r io.Reader) ([]ArchiveEntry, error) {
	var out []ArchiveEntry
	err := readJSONL(r, "archive", func(line int, data []byte) error {
		var e ArchiveEntry
		if err := json.Unmarshal(data, &e); err != nil {
			return fmt.Errorf("search: archive line %d: %w", line, err)
		}
		if err := e.validate(); err != nil {
			return fmt.Errorf("search: archive line %d: %w", line, err)
		}
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("search: archive is empty")
	}
	return out, nil
}

// LoadArchiveFile reads a JSONL archive from disk.
func LoadArchiveFile(path string) ([]ArchiveEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	defer f.Close()
	return LoadArchive(f)
}

// CampaignScenarios converts archive entries into explicit campaign
// scenarios, so a danger archive replays as the scenario axis of a
// validation sweep.
func CampaignScenarios(entries []ArchiveEntry) ([]campaign.Scenario, error) {
	out := make([]campaign.Scenario, 0, len(entries))
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if err := e.validate(); err != nil {
			return nil, err
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("search: duplicate archive entry name %q", e.Name)
		}
		seen[e.Name] = true
		m, err := e.MultiEncounterParams()
		if err != nil {
			return nil, err
		}
		out = append(out, campaign.Scenario{Name: e.Name, Params: m})
	}
	return out, nil
}

// ProposalKernels converts archive entries into importance-sampling
// proposal kernel centers (montecarlo.RareEventSpec.Kernels): each entry's
// genome vector becomes one kernel, so the danger archive steers the
// rare-event estimator toward the failure region it discovered. Entries
// are validated; genome lengths are checked against the encounter model at
// estimation time.
func ProposalKernels(entries []ArchiveEntry) ([][]float64, error) {
	out := make([][]float64, 0, len(entries))
	for _, e := range entries {
		if err := e.validate(); err != nil {
			return nil, err
		}
		out = append(out, append([]float64(nil), e.Params...))
	}
	return out, nil
}
