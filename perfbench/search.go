package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"acasxval/internal/config"
	"acasxval/internal/core"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
	"acasxval/internal/sim"
	"acasxval/internal/sys"
)

// searchSpecText is search-islands' spec: a two-island GA with ring
// migration and the danger archive on, hunting encounters that defeat the
// ACAS XU logic.
func searchSpecText(seed uint64) string {
	return fmt.Sprintf(`search.name = islands
search.islands = 2
search.migration.interval = 2
search.migration.size = 2
search.sims = 10
search.archive.threshold = 3000
search.archive.mindist = 0.05
pop.size = 12
generations = 5
seed = %d
select = tournament
select.tournament.size = 2
crossover = onepoint
crossover.prob = 0.9
mutation.prob = 0.15
mutation.sigma = 0.1
elites = 2
`, seed)
}

func parseSearch(text string) (search.Spec, error) {
	c, err := config.Parse(text)
	if err != nil {
		return search.Spec{}, err
	}
	return search.FromConfig(c)
}

// searchRun is one timed search.
type searchRun struct {
	spec    search.Spec
	res     *search.Result
	archive []byte
	gens    []float64
	dur     time.Duration
}

// searchDigest identifies a search's outcome.
func (s searchRun) digest() string {
	if s.res == nil {
		return ""
	}
	return digest(struct {
		Archive string
		Best    search.Best
		Evals   int
	}{digestBytes(s.archive), s.res.Best, s.res.NumEvaluations})
}

// runSearchIslands measures the paper's adversarial loop: an island GA
// against the ACAS XU logic with the danger archive on. The islands share
// the one measured CPU and each evaluation has one worker.
func runSearchIslands(r *run) error {
	factory, err := timeSetup(r, func() (core.SystemFactory, error) {
		table, err := buildTable()
		if err != nil {
			return nil, err
		}
		if _, err := parseSearch(searchSpecText(r.seed)); err != nil {
			return nil, err
		}
		f, err := pairFactory(sys.Context{Table: table}, "acasx")
		return core.SystemFactory(f), err
	})
	if err != nil {
		return err
	}

	// one runs search rep with the given per-evaluation worker count.
	one := func(rep int, tr *tracer, workers int) searchRun {
		var out searchRun
		spec, err := parseSearch(searchSpecText(uint64(rep)<<32 ^ r.seed))
		if err != nil {
			r.check(false, "search-islands spec: %v", err)
			return out
		}
		out.spec = spec
		f := core.SystemFactory(tr.factory("acasx", montecarlo.SystemFactory(factory)))
		var last time.Time
		opts := search.Options{
			EpisodeWorkers: workers,
			Observer: func(st search.IslandStats) {
				// The observer reports every island at the generation
				// barrier; island 0's report marks the generation.
				if st.Island == 0 {
					now := time.Now()
					out.gens = append(out.gens, now.Sub(last).Seconds())
					last = now
				}
			},
		}
		t0 := time.Now()
		last = t0
		res, err := search.RunContext(context.Background(), spec, f, opts)
		out.dur = time.Since(t0)
		evals := spec.GA.PopulationSize * spec.Islands * spec.GA.Generations
		if res != nil {
			evals = res.NumEvaluations
		}
		r.tally.add(evals, err)
		r.check(err == nil, "search-islands search %d: %v", rep, err)
		if err != nil {
			return out
		}
		var buf bytes.Buffer
		if err := res.Archive.WriteJSONL(&buf); err != nil {
			r.check(false, "search-islands archive: %v", err)
		}
		out.res, out.archive = res, buf.Bytes()
		return out
	}

	var tr *tracer
	if r.traced {
		tr = &tracer{}
	}
	var runs []searchRun
	var rates, perSec, latency []float64
	var archived float64
	runtime.GC()
	start := time.Now()
	for rep := 0; rep == 0 || keepGoing(r, start, len(latency)); rep++ {
		sr := one(rep, tr, 1)
		runs = append(runs, sr)
		if sr.res == nil {
			continue
		}
		eps := float64(sr.res.NumEvaluations * sr.spec.Fitness.SimsPerEncounter)
		s := sr.dur.Seconds()
		rates = append(rates, eps/s)
		perSec = append(perSec, float64(sr.res.NumEvaluations)/s)
		latency = append(latency, sr.gens...)
		archived += float64(sr.res.Archive.Len())
	}

	// The first searches again, untraced and traced back to back (which
	// also times the tracing overhead), and at every CPU.
	const recheck = 3
	var plainDur, tracedDur time.Duration
	for rep := 0; rep < recheck && rep < len(runs); rep++ {
		plain, traced := one(rep, nil, 1), one(rep, &tracer{}, 1)
		want := runs[rep].digest()
		r.check(plain.digest() == want && traced.digest() == want,
			"search-islands search %d differs between traced and untraced runs", rep)
		plainDur += plain.dur
		tracedDur += traced.dur
	}
	wide := allCPUs(func() searchRun { return one(0, nil, runtime.NumCPU()) })
	r.check(wide.digest() == runs[0].digest(), "search-islands outcome differs between 1 and %d CPUs", runtime.NumCPU())

	if !r.traced {
		r.out.set("episodes_per_s", sustained(rates), "1/s")
		r.out.set("units_per_s", sustained(perSec), "1/s")
		setLatency(r, latency)
		r.note("%d searches; latency is per generation", len(runs))
		return nil
	}
	costs, err := measureLayers(r.seed, r.scratch)
	if err != nil {
		return err
	}
	ts := tr.summary()
	// Search episodes are unfaulted and pairwise, so the ownship decides
	// once per decision cycle: its decisions per episode are the cycles.
	var cen census
	if b := ts.backends["acasx"]; b != nil && b.episodes > 0 {
		addCycleCensus(&cen, float64(b.episodes), float64(b.ownDecisions))
	}
	layerMetrics(r.out, costs, cen, ts)
	var busy time.Duration
	for _, sr := range runs {
		busy += sr.dur
	}
	r.out.set("montecarlo.overhead_frac", 1-ts.episodeNs()/float64(busy), "fraction")
	r.out.set("montecarlo.scaling_eff", scalingEff(plainDur/time.Duration(min(recheck, len(runs))), wide.dur), "fraction")
	r.out.set("trace.overhead_frac", float64(tracedDur)/float64(plainDur)-1, "fraction")
	var gens []float64
	for _, sr := range runs {
		gens = append(gens, sr.gens...)
	}
	r.out.set("search.gen_ms", median(gens)*1e3, "ms")
	r.out.set("search.eval_share", ts.episodeNs()/float64(busy), "fraction")
	r.out.set("search.archived", archived/float64(len(runs)), "1/search")
	return nil
}

// addCycleCensus adds pairwise, unfaulted, tracked episodes known only by
// their total decision cycles under the default run configuration.
func addCycleCensus(cen *census, episodes, cycles float64) {
	run := sim.DefaultRunConfig()
	stepsPerCycle := run.DecisionPeriod / run.Dt
	steps := cycles * stepsPerCycle
	sub := float64(max(run.MonitorSubSteps, 1))
	cen.episodes += episodes
	cen.steps += 2 * steps
	cen.observes += 2 * cycles
	cen.trackerCalls += 2 * cycles
	cen.monitorObs += episodes + steps*sub
}
