package main

import (
	"runtime"
	"time"

	"acasxval/internal/montecarlo"
	"acasxval/internal/stats"
	"acasxval/internal/sys"
)

// mcSystems are the two sides of mc-pairwise's risk-ratio estimate.
var mcSystems = []string{"none", "acasx"}

// mcSamples is the episode count of each mc-pairwise estimate.
const mcSamples = 250

// mcPair is one risk-ratio result: the unequipped and the equipped
// estimate on the same model.
type mcPair struct {
	est [2]*montecarlo.Estimate
	dur time.Duration
}

// runMCPairwise measures the episode kernel: repeated fixed-size
// estimates on the default encounter model, unequipped and ACAS XU
// equipped on the full table, at one worker. Each pair of estimates is one
// risk-ratio result.
func runMCPairwise(r *run) error {
	factories, err := timeSetup(r, func() (map[string]montecarlo.SystemFactory, error) {
		table, err := buildTable()
		if err != nil {
			return nil, err
		}
		out := map[string]montecarlo.SystemFactory{}
		for _, name := range mcSystems {
			if out[name], err = pairFactory(sys.Context{Table: table}, name); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	model := montecarlo.DefaultEncounterModel()
	multi := montecarlo.MultiEncounterModel{Intruders: []montecarlo.EncounterModel{model}}
	base := montecarlo.DefaultConfig()
	base.Samples = mcSamples
	base.Parallelism = 1

	// pair runs result rep with the given tracer and worker count.
	pair := func(rep int, tr *tracer, workers int) mcPair {
		var p mcPair
		for i, name := range mcSystems {
			cfg := base
			cfg.Parallelism = workers
			cfg.Seed = stats.DeriveSeed(r.seed, 2*rep+i)
			t0 := time.Now()
			est, err := montecarlo.Evaluate(model, tr.factory(name, factories[name]), cfg)
			p.dur += time.Since(t0)
			r.tally.add(cfg.Samples, err)
			r.check(err == nil, "mc-pairwise %s estimate %d: %v", name, rep, err)
			p.est[i] = est
		}
		return p
	}

	var tr *tracer
	if r.traced {
		tr = &tracer{}
	}
	var cen census
	var pairs []mcPair
	var rates, perSec, latency []float64
	runtime.GC()
	start := time.Now()
	for rep := 0; rep == 0 || keepGoing(r, start, len(pairs)); rep++ {
		p := pair(rep, tr, 1)
		pairs = append(pairs, p)
		s := p.dur.Seconds()
		rates = append(rates, float64(2*mcSamples)/s)
		perSec = append(perSec, 1/s)
		latency = append(latency, s)
		for i, name := range mcSystems {
			if est := p.est[i]; est != nil {
				r.checkReference("mc-pairwise/"+name, est.NMACs, est.Samples)
				if r.traced {
					cen.sampleEpisodes(multi, base.Run, false, stats.DeriveSeed(r.seed, 2*rep+i), est.Samples)
				}
			}
		}
	}
	wall := time.Since(start)

	// Output checks: the first results again, untraced and traced back to
	// back (which also times the tracing overhead), and at every CPU.
	const recheck = 3
	var plainDur, tracedDur time.Duration
	for rep := 0; rep < recheck && rep < len(pairs); rep++ {
		plain, traced := pair(rep, nil, 1), pair(rep, &tracer{}, 1)
		want := digest(pairs[rep].est)
		r.check(digest(plain.est) == want && digest(traced.est) == want,
			"mc-pairwise result %d differs between traced and untraced runs", rep)
		plainDur += plain.dur
		tracedDur += traced.dur
	}
	wide := allCPUs(func() mcPair { return pair(0, nil, runtime.NumCPU()) })
	r.check(digest(wide.est) == digest(pairs[0].est), "mc-pairwise result 0 differs between 1 and %d workers", runtime.NumCPU())

	if !r.traced {
		r.out.set("episodes_per_s", sustained(rates), "1/s")
		r.out.set("units_per_s", sustained(perSec), "1/s")
		setLatency(r, latency)
		r.note("%d risk-ratio results of 2x%d episodes in %.2fs", len(pairs), mcSamples, wall.Seconds())
		return nil
	}
	costs, err := measureLayers(r.seed, r.scratch)
	if err != nil {
		return err
	}
	ts := tr.summary()
	layerMetrics(r.out, costs, cen, ts)
	// Estimator overhead: the estimates' wall time not spent inside
	// episodes.
	var busy time.Duration
	for _, p := range pairs {
		busy += p.dur
	}
	overhead := 1 - ts.episodeNs()/float64(busy)
	r.out.set("montecarlo.overhead_frac", overhead, "fraction")
	r.out.set("montecarlo.scaling_eff", scalingEff(plainDur/time.Duration(min(recheck, len(pairs))), wide.dur), "fraction")
	r.out.set("trace.overhead_frac", float64(tracedDur)/float64(plainDur)-1, "fraction")
	return nil
}
