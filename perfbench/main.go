// Command perfbench is the repository's benchmark: one in-process program
// that generates a workload's inputs from a seed, runs them through the
// public entry points of internal/fleet and internal/experiment for a
// fixed time, checks every output, and prints each metric by name with its
// unit. See README.md in this directory for the workloads, the metrics and
// how to record and compare baselines.
//
// Usage:
//
//	perfbench --workload fleet|trials --seed N --seconds S --trace 0|1 [--record FILE]
//	perfbench compare [-spec BENCHMARK.json] BASE.jsonl NEW.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// endToEnd lists the metrics every untraced run reports, in print order.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s"},
	{Name: "sessions_per_core", Unit: "count"},
	{Name: "tick_p50_ms", Unit: "ms"},
	{Name: "tick_p99_ms", Unit: "ms"},
	{Name: "trials_per_s", Unit: "1/s"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

// workloads maps each workload to its untraced and traced runners.
var workloads = map[string]struct {
	run, trace func(o options, r *result) error
}{
	"fleet":  {runFleet, traceFleet},
	"trials": {runTrials, traceTrials},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// deadline is when the run's measured window closes.
func (o options) deadline(from time.Time) time.Time {
	return from.Add(time.Duration(o.seconds) * time.Second)
}

// traceDeadline is when a traced run stops alternating traced and
// untraced passes: half the window, leaving the other half to the
// fixed-size layer probes.
func (o options) traceDeadline(from time.Time) time.Time {
	return from.Add(time.Duration(o.seconds) * time.Second / 2)
}

// result accumulates one run's metrics, operation counts and the
// deterministic outputs the record hashes.
type result struct {
	metrics   map[string]Metric
	attempted int
	failed    int
	output    []byte
	notes     []string
}

// set reports a metric as the median of its samples.
func (r *result) set(name, unit string, samples ...float64) {
	r.setValue(name, unit, median(samples), samples...)
}

// setValue reports a metric whose value is not the median of its samples
// (a percentile over pooled latencies, a ratio of totals).
func (r *result) setValue(name, unit string, v float64, samples ...float64) {
	if len(samples) == 0 {
		samples = []float64{v}
	}
	r.metrics[name] = Metric{Value: v, Unit: unit, Summary: summarize(samples)}
}

// note records a human-readable remark in the run's record.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts n attempted operations, of which bad failed.
func (r *result) check(n, bad int) {
	r.attempted += n
	r.failed += bad
}

// peakRSSMB is the process's peak resident set (Linux ru_maxrss is KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runBench(os.Args, os.Stdout, os.Stderr))
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o      options
		trace  int
		record string
	)
	fs.StringVar(&o.workload, "workload", "", "workload: fleet or trials")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the measured window, seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	fs.StringVar(&record, "record", "", "append the run's full record as one JSON line to this file")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fleet|trials, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	o.trace = trace == 1

	r := &result{metrics: map[string]Metric{}}
	drive := w.run
	if o.trace {
		drive = w.trace
	}
	if err := drive(o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !o.trace {
		r.set("peak_rss_mb", "MB", peakRSSMB())
	}

	names := endToEnd
	if o.trace {
		names = perLayer
	}
	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]map[string]any{}}
	for _, ms := range names {
		m, ok := r.metrics[ms.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", o.workload, ms.Name)
			return 1
		}
		final.Metrics[ms.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", ms.Name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "note: %s\n", n)
	}

	sum := sha256.Sum256(r.output)
	if record != "" {
		rec := Record{
			Schema: recordSchema, Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
			Commit: commitOf("."), Command: args, Machine: thisMachine(),
			Correct: final.Correct, Attempted: r.attempted, Failed: r.failed,
			Output: hex.EncodeToString(sum[:]), Metrics: r.metrics, Notes: r.notes,
		}
		if err := appendRecord(record, rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// poolSize is the campaign pool size and the benchmark's busy-thread
// budget: one per CPU the runtime may use.
func poolSize() int { return runtime.GOMAXPROCS(0) }
