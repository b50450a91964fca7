package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec declares one metric; Bound is zero for per-layer metrics,
// which carry no regression bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchSpec{}, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return benchSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// errMachineMismatch is why compare refuses: timings from two machines
// say nothing about the code.
var errMachineMismatch = errors.New("records come from different machines")

// verdict is the compare mode's judgement of one metric.
type verdict struct {
	Workload string
	Trace    bool
	Metric   string
	Unit     string
	Base     Summary
	New      Summary
	// Change is (new - base) / |base| of the medians.
	Change float64
	// Bound is the allowed worsening share; 0 = informational only.
	Bound float64
	// Flag is "worse" or "better" when the change exceeds Bound in that
	// direction, "" otherwise.
	Flag string
}

// comparison is the outcome of comparing two run sets.
type comparison struct {
	Verdicts []verdict
	// Problems are correctness findings: failed runs, or runs of the same
	// workload and seed whose outputs differ.
	Problems []string
}

// flagged reports whether anything needs a reader's attention.
func (c comparison) flagged() bool {
	if len(c.Problems) > 0 {
		return true
	}
	for _, v := range c.Verdicts {
		if v.Flag == "worse" {
			return true
		}
	}
	return false
}

// compareRuns compares a base run set with a new one, metric by metric,
// per workload and trace mode. A metric is flagged only when its new median
// moved past the metric's bound; per-layer metrics are listed without
// flags. Records from different machines are refused.
func compareRuns(spec benchSpec, base, cur []Record) (comparison, error) {
	var out comparison
	if len(base) == 0 || len(cur) == 0 {
		return out, errors.New("compare needs at least one record on each side")
	}
	m := base[0].Machine
	for _, r := range append(append([]Record(nil), base...), cur...) {
		if !r.Machine.sameMachine(m) {
			return out, fmt.Errorf("%w: %q vs %q", errMachineMismatch, m, r.Machine)
		}
	}

	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []Record) map[key][]Record {
		g := map[key][]Record{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	bg, cg := group(base), group(cur)
	var keys []key
	for k := range bg {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	if len(keys) == 0 {
		return out, errors.New("no workload and trace mode appears in both record sets")
	}

	for _, k := range keys {
		bs, cs := bg[k], cg[k]
		for _, side := range [][]Record{bs, cs} {
			for _, r := range side {
				if !r.Correct || r.Failed > 0 {
					out.Problems = append(out.Problems, fmt.Sprintf("%s seed %d (commit %s): %d of %d operations failed their output check",
						r.Workload, r.Seed, r.Commit, r.Failed, r.Attempted))
				}
			}
		}
		if !k.trace {
			outputs := map[int64]Record{}
			for _, r := range bs {
				outputs[r.Seed] = r
			}
			for _, r := range cs {
				if b, ok := outputs[r.Seed]; ok && b.Output != r.Output {
					out.Problems = append(out.Problems, fmt.Sprintf("%s seed %d: output %s (commit %s) differs from %s (commit %s)",
						r.Workload, r.Seed, short(r.Output), r.Commit, short(b.Output), b.Commit))
				}
			}
		}
		metrics := spec.EndToEnd
		if k.trace {
			metrics = spec.PerLayer
		}
		for _, ms := range metrics {
			bv, okb := values(bs, ms.Name)
			cv, okc := values(cs, ms.Name)
			if !okb || !okc {
				continue
			}
			v := verdict{
				Workload: k.workload, Trace: k.trace, Metric: ms.Name, Unit: ms.Unit,
				Base: summarize(bv), New: summarize(cv), Bound: ms.Bound,
			}
			v.Change = (v.New.Median - v.Base.Median) / math.Abs(v.Base.Median)
			if ms.Bound > 0 {
				worse := v.Change
				if ms.Better == "higher" {
					worse = -worse
				}
				switch {
				case worse > ms.Bound:
					v.Flag = "worse"
				case -worse > ms.Bound:
					v.Flag = "better"
				}
			}
			out.Verdicts = append(out.Verdicts, v)
		}
	}
	return out, nil
}

// values collects one metric's per-run values; ok is false when any run
// lacks the metric.
func values(rs []Record, name string) ([]float64, bool) {
	var xs []float64
	for _, r := range rs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		xs = append(xs, m.Value)
	}
	return xs, true
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// writeComparison renders a comparison as a table; each side's spread
// (interquartile range over median) shows how noisy its runs were.
func writeComparison(w io.Writer, c comparison) {
	fmt.Fprintf(w, "%-7s %-5s %-34s %14s %7s %14s %7s %9s %7s  %s\n",
		"workld", "trace", "metric", "base median", "spread", "new median", "spread", "change", "bound", "flag")
	for _, v := range c.Verdicts {
		bound, flag := "-", v.Flag
		if v.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*v.Bound)
		}
		trace := "0"
		if v.Trace {
			trace = "1"
		}
		fmt.Fprintf(w, "%-7s %-5s %-34s %14.6g %6.1f%% %14.6g %6.1f%% %+8.1f%% %7s  %s\n",
			v.Workload, trace, v.Metric+" ("+v.Unit+")", v.Base.Median, 100*spread(v.Base),
			v.New.Median, 100*spread(v.New), 100*v.Change, bound, flag)
	}
	for _, p := range c.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

// runCompare is the compare mode's entry: perfbench compare [-spec file]
// BASE NEW. It exits 0 when nothing is flagged, 1 when a metric worsened
// past its bound or an output check failed, 2 when it cannot compare.
func runCompare(args []string, stdout, stderr io.Writer) int {
	specPath := "BENCHMARK.json"
	if len(args) >= 2 && args[0] == "-spec" {
		specPath, args = args[1], args[2:]
	}
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-spec BENCHMARK.json] BASE.jsonl NEW.jsonl")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	base, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	cur, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	c, err := compareRuns(spec, base, cur)
	if err != nil {
		fmt.Fprintln(stderr, "compare: refusing:", err)
		return 2
	}
	fmt.Fprintf(stdout, "machine: %s\nbase: %d run(s), commit %s\nnew:  %d run(s), commit %s\n",
		base[0].Machine, len(base), base[0].Commit, len(cur), cur[0].Commit)
	writeComparison(stdout, c)
	if c.flagged() {
		return 1
	}
	return 0
}
