package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"acasxval/internal/campaign"
	"acasxval/internal/encounter"
	"acasxval/internal/montecarlo"
)

// campaignSamples is the per-cell episode count of campaign-mix.
const campaignSamples = 32

// campaignSpecText is campaign-mix's spec: every pairwise and multi-intruder
// preset x all six backends x faults {none, severe}, plus importance
// sampling and splitting estimator cells on wide miss-distance priors,
// steered by four fixed danger-archive kernels.
func campaignSpecText(seed uint64) string {
	presets := append(encounter.PresetNames(), encounter.MultiPresetNames()...)
	return fmt.Sprintf(`campaign.name = mix
campaign.presets = %s
campaign.systems = %s
campaign.faults = none, severe
campaign.samples = %d
campaign.seed = %d
campaign.parallelism = 1
campaign.model.hmd = 0, 8000
campaign.model.vmd = -400, 400
campaign.estimator.methods = is, split
campaign.estimator.defensive = 0.3
campaign.estimator.bandwidth = 0.02
campaign.estimator.levels = 450, 250, 160
campaign.estimator.level.samples = 64
campaign.estimator.moves = 2
campaign.estimator.kernel.0 = 28,  5, 25,   60, 1.0, -70, 30, 5.0, -5
campaign.estimator.kernel.1 = 54, -5, 35,  350, 2.5,  25, 55, 2.0,  5
campaign.estimator.kernel.2 = 48,  3, 22,  800, 4.5,  65, 25, 0.5, -4
campaign.estimator.kernel.3 = 30, -4, 38, 1500, 5.8, -20, 50, 3.5,  4
`, strings.Join(presets, ", "), strings.Join(backendNames, ", "), campaignSamples, seed)
}

// arrivals is the campaign's JSONL writer: it keeps the bytes and records
// when each line arrives and how long storing it took. With one worker the
// gaps between lines are the cells' times.
type arrivals struct {
	last    time.Time
	gaps    []float64
	writeNs int64
	bytes   bytes.Buffer
}

func (a *arrivals) Write(p []byte) (int, error) {
	now := time.Now()
	a.gaps = append(a.gaps, now.Sub(a.last).Seconds())
	a.bytes.Write(p)
	a.last = time.Now()
	a.writeNs += int64(a.last.Sub(now))
	return len(p), nil
}

// campaignRun is one timed campaign.
type campaignRun struct {
	spec  campaign.Spec
	res   *campaign.Result
	jsonl []byte
	gaps  []float64
	dur   time.Duration
	// writeNs is the time spent storing JSONL lines.
	writeNs int64
}

// runCampaignMix measures the decision, fault, tracker, estimator and
// per-cell layers: one campaign over the whole preset x backend x fault
// grid with rare-event estimator cells, repeated under fresh seeds, at
// one worker.
func runCampaignMix(r *run) error {
	systems, err := timeSetup(r, func() (campaign.SystemSet, error) {
		table, err := buildTable()
		if err != nil {
			return nil, err
		}
		if _, err := parseCampaign(campaignSpecText(r.seed)); err != nil {
			return nil, err
		}
		return campaign.DefaultSystems(table), nil
	})
	if err != nil {
		return err
	}

	// one runs campaign rep at the given worker count; tr wraps the
	// systems.
	one := func(rep int, tr *tracer, workers int) campaignRun {
		var out campaignRun
		spec, err := parseCampaign(campaignSpecText(uint64(rep)<<32 ^ r.seed))
		if err != nil {
			r.check(false, "campaign-mix spec: %v", err)
			return out
		}
		out.spec = spec
		spec.Parallelism = workers
		cells, err := spec.Cells()
		if err != nil {
			r.check(false, "campaign-mix cells: %v", err)
			return out
		}
		arr := &arrivals{}
		t0 := time.Now()
		arr.last = t0
		res, err := campaign.RunContext(context.Background(), spec, tr.systems(systems), arr)
		out.dur = time.Since(t0)
		r.tally.add(len(cells), err)
		r.check(err == nil, "campaign-mix campaign %d: %v", rep, err)
		out.res, out.jsonl, out.gaps, out.writeNs = res, arr.bytes.Bytes(), arr.gaps, arr.writeNs
		return out
	}

	var tr *tracer
	if r.traced {
		tr = &tracer{}
	}
	var cen census
	var runs []campaignRun
	var rates, perSec, latency, vrfs []float64
	var ess, essEpisodes float64
	// pooled sums each classic cell's NMACs and episodes over the run's
	// campaigns: every campaign reseeds the same fixed scenarios, so the
	// pool is one binomial sample per reference.
	pooled := map[string][2]int{}
	var jsonlBytes, writeNs, writes float64
	runtime.GC()
	start := time.Now()
	for rep := 0; rep == 0 || keepGoing(r, start, len(latency)); rep++ {
		cr := one(rep, tr, 1)
		runs = append(runs, cr)
		if cr.res == nil {
			continue
		}
		s := cr.dur.Seconds()
		rates = append(rates, float64(cr.res.TotalRuns)/s)
		perSec = append(perSec, float64(len(cr.res.Cells))/s)
		latency = append(latency, cr.gaps...)
		for _, c := range cr.res.Cells {
			if c.Estimator != "" {
				vrfs = append(vrfs, c.VarianceReduction)
				ess += c.ESS
				essEpisodes += float64(c.Samples)
			} else {
				key := cellKey(c.Scenario, c.System, c.Fault)
				p := pooled[key]
				pooled[key] = [2]int{p[0] + c.NMACs, p[1] + c.Samples}
			}
			if r.traced {
				addCellCensus(&cen, cr.spec, c)
			}
		}
		jsonlBytes += float64(len(cr.jsonl))
		writeNs += float64(cr.writeNs)
		writes += float64(len(cr.gaps))
	}

	// Output checks: every classic cell's pooled P(NMAC) against its
	// reference, and the first campaign again, untraced and traced back to
	// back (which also times the tracing overhead) and at every CPU, must
	// stream the same bytes. Estimator cells are checked by
	// the byte comparison only: at this budget their ESS is too unreliable
	// to read them as binomial samples.
	for _, key := range sortedKeys(pooled) {
		r.checkReference(key, pooled[key][0], pooled[key][1])
	}
	plain, traced := one(0, nil, 1), one(0, &tracer{}, 1)
	r.check(bytes.Equal(plain.jsonl, runs[0].jsonl) && bytes.Equal(traced.jsonl, runs[0].jsonl),
		"campaign-mix JSONL differs between traced and untraced runs")
	wide := allCPUs(func() campaignRun { return one(0, nil, runtime.NumCPU()) })
	r.check(bytes.Equal(wide.jsonl, runs[0].jsonl), "campaign-mix JSONL differs between 1 and %d workers", runtime.NumCPU())

	if !r.traced {
		r.out.set("episodes_per_s", sustained(rates), "1/s")
		r.out.set("units_per_s", sustained(perSec), "1/s")
		setLatency(r, latency)
		r.note("%d campaigns", len(runs))
		return nil
	}
	costs, err := measureLayers(r.seed, r.scratch)
	if err != nil {
		return err
	}
	ts := tr.summary()
	layerMetrics(r.out, costs, cen, ts)
	vrf, defined := geomean(vrfs)
	r.out.set("montecarlo.rare.vrf", vrf, "ratio")
	r.note("montecarlo.rare.vrf over %d of %d estimator cells (the rest saw no NMAC)", defined, len(vrfs))
	if essEpisodes > 0 {
		r.out.set("montecarlo.rare.ess_frac", ess/essEpisodes, "ratio")
	}
	var busy time.Duration
	for _, cr := range runs {
		busy += cr.dur
	}
	r.out.set("montecarlo.overhead_frac", 1-ts.episodeNs()/float64(busy), "fraction")
	r.out.set("montecarlo.scaling_eff", scalingEff(plain.dur, wide.dur), "fraction")
	r.out.set("trace.overhead_frac", float64(traced.dur)/float64(plain.dur)-1, "fraction")
	p50, _ := percentile(latency, 0.5)
	r.out.set("campaign.cell_ms_p50", p50*1e3, "ms")
	p99, ok := percentile(latency, 0.99)
	if !ok {
		r.note("campaign.cell_ms_p99 withheld: %d cells, need 1000", len(latency))
		p99 = 0
	}
	r.out.set("campaign.cell_ms_p99", p99*1e3, "ms")
	r.out.set("campaign.jsonl_bytes", jsonlBytes/float64(len(runs)), "B/campaign")
	if writes > 0 {
		r.out.set("campaign.jsonl_write_ns", writeNs/writes, "ns")
	}
	return nil
}

// addCellCensus adds a campaign cell's episodes to the census: classic
// cells replay their fixed encounter; estimator cells sample the spec's
// statistical model, whose draws the census takes afresh.
func addCellCensus(cen *census, spec campaign.Spec, c campaign.CellResult) {
	run := spec.Run
	faulted := c.Fault != "" && c.Fault != "none"
	if c.Estimator == "" {
		m, err := encounter.MultiFromVector(c.Params)
		if err == nil {
			cen.add(m, run, faulted, c.Samples)
		}
		return
	}
	model := montecarlo.DefaultEncounterModel()
	if spec.Model != nil {
		model = *spec.Model
	}
	k := max(spec.Intruders, 1)
	multi := montecarlo.MultiEncounterModel{}
	for i := 0; i < k; i++ {
		multi.Intruders = append(multi.Intruders, model)
	}
	cen.sampleEpisodes(multi, run, faulted, uint64(c.Index), c.Samples)
}
