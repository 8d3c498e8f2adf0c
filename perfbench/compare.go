package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchSpec(root string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// resultSet holds the values of every (workload, metric) over the runs of
// one side, in the order the runs appear.
type resultSet map[string]map[string][]float64

// readResults parses a result set: the standard output of any number of
// runs concatenated, each an env line followed by its result line.
func readResults(r io.Reader) (resultSet, error) {
	set := resultSet{}
	workload := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Env     *env    `json:"env"`
			Metrics metrics `json:"metrics"`
			Correct *bool   `json:"correct"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Env != nil:
			workload = line.Env.Workload
		case line.Correct != nil:
			if workload == "" {
				return nil, fmt.Errorf("result line without a preceding env line")
			}
			if set[workload] == nil {
				set[workload] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				set[workload][name] = append(set[workload][name], m.Value)
			}
			workload = ""
		}
	}
	return set, sc.Err()
}

func readResultFile(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readResults(f)
}

// Verdicts of one metric's comparison.
const (
	verdictWithin     = "within bound"
	verdictRegressed  = "REGRESSED"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
	verdictNoBound    = "-"
)

// verdict compares head against base for a metric where better is
// "higher" or "lower" and bound is the share of base's median by which
// head may be worse. Worse by more than the bound regresses. A gain needs
// head to win at least nine tenths of the index-paired runs (ties count
// for neither) and the medians to differ by more than base's own
// interquartile range. When base's spread exceeds the bound a
// non-regressing, non-improving difference is unresolved. A zero bound
// reports no verdict.
func verdict(base, head []float64, better string, bound float64) string {
	if bound <= 0 || len(base) == 0 || len(head) == 0 {
		return verdictNoBound
	}
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	mb, mh := median(base), median(head)
	// gain > 0 means head is better, as a share of base's median.
	gain := sign * (mh - mb) / math.Abs(mb)
	if mb == 0 {
		gain = sign * (mh - mb)
	}
	if gain < -bound {
		return verdictRegressed
	}
	q1, q3 := quartiles(base)
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if sign*(head[i]-base[i]) > 0 {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && sign*(mh-mb) > q3-q1 {
		return verdictImproved
	}
	if spread(base) > bound {
		return verdictUnresolved
	}
	return verdictWithin
}

// compareMain prints, per workload and metric, each side's median and
// quartiles, the difference and the verdict under the bound in
// BENCHMARK.json. It exits 1 when any end-to-end metric regressed.
func compareMain(root, basePath, headPath string) int {
	spec, err := loadBenchSpec(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	base, err := readResultFile(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	head, err := readResultFile(headPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	specs := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		specs[m.Name] = m
	}
	regressed := false
	for _, wl := range sortedKeys(base) {
		if head[wl] == nil {
			fmt.Printf("%s: no head runs\n", wl)
			continue
		}
		fmt.Printf("%s (base %d runs, head %d runs)\n", wl, runsOf(base[wl]), runsOf(head[wl]))
		fmt.Printf("  %-32s %-10s %28s %28s %9s %7s  %s\n", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "delta", "bound", "verdict")
		for _, name := range sortedKeys(base[wl]) {
			b, h := base[wl][name], head[wl][name]
			if len(h) == 0 {
				continue
			}
			ms := specs[name]
			v := verdict(b, h, ms.Better, ms.Bound)
			if v == verdictRegressed {
				regressed = true
			}
			delta := math.NaN()
			if mb := median(b); mb != 0 {
				delta = (median(h) - mb) / math.Abs(mb)
			}
			fmt.Printf("  %-32s %-10s %28s %28s %+8.1f%% %6.1f%%  %s\n",
				name, ms.Unit, summary(b), summary(h), 100*delta, 100*ms.Bound, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func runsOf(m map[string][]float64) int {
	n := 0
	for _, v := range m {
		n = max(n, len(v))
	}
	return n
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}
