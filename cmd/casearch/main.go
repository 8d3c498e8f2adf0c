// Command casearch runs the paper's section VII experiment: the GA-based
// search for challenging situations where ACAS XU behaves poorly. With the
// default settings it reproduces the paper-scale workload — one population
// of 200 evolved for 5 generations, every encounter scored by 100
// stochastic simulations — and reports the Fig. 6 fitness series, the
// wall-clock time (paper footnote 5: ~300 s), and the geometry analysis of
// the discovered encounters (Figs. 7-8: tail approaches dominate).
//
// Every search runs on the island-model engine; one island (the default)
// is the paper's single-population GA. With -islands N, N populations
// (-pop is the per-island population) evolve concurrently and exchange
// elites via ring migration. Every run accumulates a deduplicated danger
// archive (-archive, replayable with sweep -extra and encsim -found), can
// checkpoint after every generation (-checkpoint) so a killed run resumes
// bit-identically (-resume), and can seed its initial populations from the
// worst cells of a prior sweep's JSONL output (-seed-from-sweep). SIGINT or
// SIGTERM stops the search at the next evaluation boundary, reports the
// best so far and flushes the archive.
//
// Usage:
//
//	casearch [-table table.acxt] [-pop 200] [-gens 5] [-sims 100]
//	         [-seed 1] [-top 10] [-system <name>]
//	         [-params ecj.params] [-fitness-csv fig6.csv]
//	         [-baseline] [-clusters 3]
//	         [-islands N] [-intruders K] [-checkpoint state.json] [-resume]
//	         [-seed-from-sweep results.jsonl] [-archive danger.jsonl]
//	         [-migrate-every K] [-migrants M] [-threshold F] [-mindist D]
//	         [-episode-workers W] [-faults <preset>]
//	         [-evolve-faults] [-fault-penalty F]
//
// -baseline also runs the uniform random-search baseline at equal budget:
// the same spec for one generation on one island of as many individuals as
// the GA evaluated. -clusters K groups the high-fitness encounters of the
// evaluation log by k-means; it and the top-K geometry tally read pairwise
// genomes, so K-intruder and fault-evolving searches report their top
// archive entries instead.
//
// -faults fixes a surveillance degradation preset on every fitness
// evaluation. -evolve-faults instead appends the degradation profile to
// each genome, so the GA searches for the combination of geometry and
// sensor faults that defeats avoidance; -fault-penalty F subtracts
// F x severity from fitness so mild degradations that still produce NMACs
// outrank brute-force blackouts.
//
// -islands 0 (the default) takes the island count from -params'
// search.islands key (1 when the key or the file is absent), so a spec
// file declaring an island search runs as one without repeating the count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"acasxval/internal/acasx"
	"acasxval/internal/cli"
	"acasxval/internal/config"
	"acasxval/internal/core"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/ga"
	"acasxval/internal/search"
	"acasxval/internal/sys"
	"acasxval/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "casearch:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		tablePath  = flag.String("table", "", "logic table path (built on the fly when absent)")
		coarse     = flag.Bool("coarse", false, "use the reduced-resolution table when building")
		system     = flag.String("system", "acasx", "system under test: "+sys.NamesList())
		pop        = flag.Int("pop", 200, "GA population size per island (paper: 200)")
		gens       = flag.Int("gens", 5, "GA generations (paper: 5)")
		sims       = flag.Int("sims", 100, "simulations per encounter (paper: 100)")
		seed       = flag.Uint64("seed", 1, "search seed")
		topK       = flag.Int("top", 10, "number of top encounters to report")
		paramsFile = flag.String("params", "", "ECJ-style parameter file overriding GA/search settings")
		fitnessCSV = flag.String("fitness-csv", "", "write the Fig. 6 evaluation log as CSV")
		baseline   = flag.Bool("baseline", false, "also run the random-search baseline at equal budget")
		clusters   = flag.Int("clusters", 0, "cluster the high-fitness encounters into K groups")

		islandsFlag = flag.Int("islands", 0, "island count (1 = the paper's single population; 0 takes -params' search.islands, default 1)")
		intruders   = flag.Int("intruders", 0, "intruders K per evolved encounter (genome length K*9; 0 = spec default, i.e. pairwise)")
		checkpoint  = flag.String("checkpoint", "", "checkpoint file written after every generation")
		resume      = flag.Bool("resume", false, "resume from -checkpoint instead of starting fresh")
		seedSweep   = flag.String("seed-from-sweep", "", "seed initial populations from this sweep JSONL")
		archiveOut  = flag.String("archive", "", "write the danger archive as JSONL to this file")
		migEvery    = flag.Int("migrate-every", 0, "generations between ring migrations (0 = spec default)")
		migrants    = flag.Int("migrants", 0, "elites migrated to the ring successor (0 = spec default)")
		threshold   = flag.Float64("threshold", -1, "archive fitness threshold (-1 = spec default)")
		minDist     = flag.Float64("mindist", -1, "archive dedup distance in [0, 1] (-1 = spec default)")
		epWorkers   = flag.Int("episode-workers", 0, "parallel episode workers per fitness evaluation (0 = NumCPU/islands; results are identical for any count)")

		faultsFlag   = flag.String("faults", "", "fixed surveillance degradation preset for every evaluation: "+strings.Join(fault.PresetNames(), ", ")+" (empty = clean)")
		evolveFaults = flag.Bool("evolve-faults", false, "co-evolve the degradation profile with the encounter geometry")
		faultPenalty = flag.Float64("fault-penalty", 0, "severity parsimony weight subtracted from co-evolved fitness")
	)
	flag.Parse()

	if *islandsFlag < 0 {
		return fmt.Errorf("-islands %d < 0", *islandsFlag)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// Out-of-range values for the tuning flags must error, not silently
	// fall back to the spec defaults their sentinels encode.
	if set["migrate-every"] && *migEvery < 1 {
		return fmt.Errorf("-migrate-every %d < 1", *migEvery)
	}
	if set["migrants"] && *migrants < 0 {
		return fmt.Errorf("-migrants %d < 0", *migrants)
	}
	if set["threshold"] && *threshold < 0 {
		return fmt.Errorf("-threshold %v < 0", *threshold)
	}
	if set["mindist"] && (*minDist < 0 || *minDist > 1) {
		return fmt.Errorf("-mindist %v outside [0, 1]", *minDist)
	}
	if *epWorkers < 0 {
		return fmt.Errorf("-episode-workers %d < 0", *epWorkers)
	}
	if set["intruders"] && *intruders < 1 {
		return fmt.Errorf("-intruders %d < 1", *intruders)
	}
	if set["fault-penalty"] && *faultPenalty < 0 {
		return fmt.Errorf("-fault-penalty %v < 0", *faultPenalty)
	}

	spec := search.DefaultSpec()
	var params *config.Params
	if *paramsFile != "" {
		loaded, err := config.Load(*paramsFile)
		if err != nil {
			return err
		}
		params = loaded
		if spec, err = search.FromConfig(params); err != nil {
			return fmt.Errorf("%s: %w", *paramsFile, err)
		}
	}
	// -islands 0 (the default) defers to the -params file's search.islands
	// key, so a spec file declaring an island search runs as one without
	// repeating the count on the command line.
	spec.Islands = *islandsFlag
	if spec.Islands == 0 {
		spec.Islands = 1
		if params != nil {
			var err error
			if spec.Islands, err = params.IntOr("search.islands", 1); err != nil {
				return err
			}
			if spec.Islands < 1 {
				return fmt.Errorf("%s: search.islands %d < 1", *paramsFile, spec.Islands)
			}
		}
	}
	// Without a spec file the flags (at their defaults or not) define the
	// search; with one, only explicitly-set flags override it.
	if params == nil || set["pop"] {
		spec.GA.PopulationSize = *pop
	}
	if params == nil || set["gens"] {
		spec.GA.Generations = *gens
	}
	if params == nil || set["sims"] {
		spec.Fitness.SimsPerEncounter = *sims
	}
	if params == nil || set["seed"] {
		spec.Seed = *seed
	}
	if set["intruders"] {
		spec.Intruders = *intruders
	}
	if set["migrate-every"] {
		spec.MigrationInterval = *migEvery
	}
	if set["migrants"] {
		spec.MigrationSize = *migrants
	}
	if set["threshold"] {
		spec.ArchiveThreshold = *threshold
	}
	if set["mindist"] {
		spec.ArchiveMinDistance = *minDist
	}
	if *faultsFlag != "" {
		p, err := fault.Resolve(*faultsFlag)
		if err != nil {
			return err
		}
		spec.Fitness.Run.Faults = p
	}
	if set["evolve-faults"] {
		spec.EvolveFaults = *evolveFaults
	}
	if set["fault-penalty"] {
		spec.FaultPenalty = *faultPenalty
	}
	if *seedSweep != "" {
		seeds, err := search.SweepSeedsFile(*seedSweep, spec.Islands*spec.GA.PopulationSize)
		if err != nil {
			return err
		}
		spec.SeedGenomes = seeds
		fmt.Printf("seeded %d genomes from %s\n", len(seeds), *seedSweep)
	}

	table, err := maybeTable(*system, *tablePath, *coarse)
	if err != nil {
		return err
	}
	sysFactory, err := sys.PairFactory(sys.Context{Table: table}, sys.Spec{Name: *system})
	if err != nil {
		return err
	}

	fmt.Printf("GA search: system=%s islands=%d intruders=%d pop/island=%d gens=%d sims/encounter=%d seed=%d",
		*system, spec.Islands, spec.NumIntruders(), spec.GA.PopulationSize, spec.GA.Generations,
		spec.Fitness.SimsPerEncounter, spec.Seed)
	if spec.Islands > 1 {
		fmt.Printf(" migration=%d every %d", spec.MigrationSize, spec.MigrationInterval)
	}
	fmt.Println()
	if spec.EvolveFaults {
		fmt.Printf("co-evolving surveillance degradation (severity penalty %g)\n", spec.FaultPenalty)
	} else if spec.Fitness.Run.Faults.Enabled() {
		fmt.Printf("degraded surveillance on every evaluation (severity %.2f)\n", spec.Fitness.Run.Faults.Severity())
	}

	// SIGINT/SIGTERM interrupt the search at the next evaluation boundary;
	// the partial result below still reports the best-so-far, flushes the
	// archive, and points at the checkpoint to resume from.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var evals []ga.Evaluation
	logEvals := search.LogEvaluations(&evals)
	res, err := search.RunContext(ctx, spec, sysFactory, search.Options{
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		EpisodeWorkers: *epWorkers,
		Observer: func(is search.IslandStats) {
			logEvals(is)
			gs := is.Stats
			if spec.Islands == 1 {
				fmt.Printf("  generation %d: fitness min %.1f mean %.1f max %.1f\n", gs.Generation, gs.Min, gs.Mean, gs.Max)
				return
			}
			if is.Island == 0 {
				fmt.Printf("  generation %d:\n", gs.Generation)
			}
			fmt.Printf("    island %d: fitness min %.1f mean %.1f max %.1f\n", is.Island, gs.Min, gs.Mean, gs.Max)
		},
	})
	if err != nil {
		if res == nil {
			return err
		}
		fmt.Printf("\ninterrupted after %d generations (%d evaluations); best fitness so far %.1f\n",
			res.GenerationsRun, res.NumEvaluations, res.Best.Fitness)
		if *checkpoint != "" {
			fmt.Printf("resume with -resume -checkpoint %s\n", *checkpoint)
		}
		if *archiveOut != "" {
			if aerr := writeArchiveOut(*archiveOut, res, spec.ArchiveThreshold); aerr != nil {
				return aerr
			}
		}
		return err
	}

	if res.Resumed {
		fmt.Printf("resumed from %s\n", *checkpoint)
	}
	// NumEvaluations includes pre-checkpoint work on resumed runs, so
	// label the wall clock as this invocation's alone.
	fmt.Printf("\nsearch time: %v this run; %d encounter evaluations total (%d generations; paper footnote 5: ~300 s)\n",
		res.Elapsed.Round(1e7), res.NumEvaluations, res.GenerationsRun)
	fmt.Printf("best encounter: island %d generation %d fitness %.1f %s class %s\n",
		res.Best.Island, res.Best.Generation, res.Best.Fitness,
		res.Best.Params, res.Best.Geometry.Category)
	if spec.EvolveFaults {
		fmt.Printf("best co-evolved degradation: %+v (severity %.2f)\n", res.Best.Fault, res.Best.Fault.Severity())
	}

	fmt.Println("\nFig. 6 — fitness per encounter over the search:")
	fmt.Print(viz.RenderFitnessSeries(evals, spec.Islands*spec.GA.PopulationSize, 100, 18))

	// The section VII analysis (top-K geometry tally, clusters) reads
	// pairwise genomes; other searches rank their archive instead.
	pairwise := spec.GenomeLen() == encounter.NumParams
	if pairwise {
		top := core.TopEncounters(spec.Ranges, evals, *topK)
		fmt.Printf("\ntop %d challenging encounters:\n%s", len(top), core.ReportTop(top))
		tally := core.Tally(top)
		fmt.Printf("geometry tally: %s\n", tally)
		fmt.Printf("dominant class: %s (paper: \"most of them are tail approach situations\")\n",
			tally.Dominant())
	}
	if *clusters > 0 {
		var cs []core.Cluster
		err := fmt.Errorf("needs pairwise genomes (genome length %d)", spec.GenomeLen())
		if pairwise {
			cs, err = core.ClusterEvaluations(spec.Ranges, evals, *clusters, res.Best.Fitness/2, spec.Seed)
		}
		if err != nil {
			fmt.Printf("clustering skipped: %v\n", err)
		} else {
			fmt.Printf("\n%d clusters of high-fitness encounters:\n", len(cs))
			for i, c := range cs {
				fmt.Printf("  cluster %d: %d members, mean fitness %.1f, center %s\n",
					i+1, len(c.Members), c.MeanFitness, c.Center)
			}
		}
	}

	fmt.Printf("\ndanger archive: %d distinct encounters at fitness >= %.0f\n",
		res.Archive.Len(), spec.ArchiveThreshold)
	if !pairwise {
		ranked := res.Archive.Entries() // a copy; sorting cannot disturb the archive
		sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Fitness > ranked[j].Fitness })
		for _, e := range ranked[:max(0, min(*topK, len(ranked)))] {
			fmt.Printf("  %s: fitness %.1f P(NMAC) %.2f %s\n", e.Name, e.Fitness, e.PNMAC, e.Geometry)
		}
	}

	if *fitnessCSV != "" {
		f, err := os.Create(*fitnessCSV)
		if err != nil {
			return err
		}
		if err := viz.WriteFitnessCSV(f, evals); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote evaluation log to %s\n", *fitnessCSV)
	}

	if *baseline {
		fmt.Printf("\nrandom-search baseline (%d evaluations):\n", res.NumEvaluations)
		var rndEvals []ga.Evaluation
		rnd, err := search.RunContext(ctx, spec.RandomBaseline(res.NumEvaluations), sysFactory, search.Options{
			EpisodeWorkers: *epWorkers,
			Observer:       search.LogEvaluations(&rndEvals),
		})
		if err != nil {
			return err
		}
		fmt.Printf("  GA best fitness:     %.1f\n", res.Best.Fitness)
		fmt.Printf("  random best fitness: %.1f (in %v)\n", rnd.Best.Fitness, rnd.Elapsed.Round(1e7))
		threshold := res.Best.Fitness * 0.9
		fmt.Printf("  evaluations to reach fitness %.0f: GA %s, random %s\n", threshold,
			fmtEvals(core.EvaluationsToReach(evals, threshold)), fmtEvals(core.EvaluationsToReach(rndEvals, threshold)))
	}

	if *archiveOut != "" {
		if err := writeArchiveOut(*archiveOut, res, spec.ArchiveThreshold); err != nil {
			return err
		}
	}
	return nil
}

// writeArchiveOut flushes the danger archive as JSONL — after a complete
// run or an interrupted one; partial archives are as replayable as full
// ones.
func writeArchiveOut(path string, res *search.Result, threshold float64) error {
	if res.Archive.Len() == 0 {
		// sweep -extra rejects empty archives; don't leave one behind
		// with an instruction to replay it.
		fmt.Printf("danger archive is empty (no encounter reached fitness %.0f); not writing %s\n",
			threshold, path)
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Archive.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote danger archive to %s (replayable with sweep -extra and encsim -found)\n", path)
	return nil
}

func fmtEvals(n int) string {
	if n < 0 {
		return "never"
	}
	return fmt.Sprintf("%d", n)
}

// maybeTable builds/loads the table only when the system needs one.
func maybeTable(system, path string, coarse bool) (*acasx.Table, error) {
	if !sys.NeedsTable(system) {
		return nil, nil
	}
	return cli.LoadOrBuildTable(path, coarse, 0)
}
