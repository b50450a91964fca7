package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testSpec = benchSpec{
	EndToEnd: []metricSpec{
		{Name: "trials_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "tick_p99_ms", Unit: "ms", Better: "lower", Bound: 0.2},
	},
	PerLayer: []metricSpec{{Name: "sim.step_us", Unit: "us", Better: "lower"}},
}

var testMachine = Machine{CPUModel: "Test CPU", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.22", OS: "linux", Arch: "amd64"}

func rec(seed int64, trace bool, output string, metrics map[string]float64) Record {
	r := Record{
		Schema: recordSchema, Workload: "fleet", Seed: seed, Trace: trace, Commit: "c",
		Machine: testMachine, Correct: true, Attempted: 10, Output: output,
		Metrics: map[string]Metric{},
	}
	for name, v := range metrics {
		r.Metrics[name] = Metric{Value: v, Summary: summarize([]float64{v})}
	}
	return r
}

func set(base float64, trace bool, output string, values ...float64) []Record {
	var rs []Record
	for i, v := range values {
		rs = append(rs, rec(int64(i), trace, output, map[string]float64{
			"trials_per_s": base * v, "tick_p99_ms": 2, "sim.step_us": 7,
		}))
	}
	return rs
}

func verdictFor(t *testing.T, c comparison, metric string) verdict {
	t.Helper()
	for _, v := range c.Verdicts {
		if v.Metric == metric {
			return v
		}
	}
	t.Fatalf("no verdict for %s in %+v", metric, c.Verdicts)
	return verdict{}
}

func TestCompareFlagsOnlyChangesPastTheBound(t *testing.T) {
	base := set(100, false, "h", 0.98, 1.0, 1.02)
	for _, c := range []struct {
		scale float64
		flag  string
	}{
		{1.0, ""},
		{0.95, ""},      // 5% worse, inside the 10% bound
		{0.85, "worse"}, // 15% fewer trials/s
		{1.15, "better"},
	} {
		cur := set(100*c.scale, false, "h", 0.98, 1.0, 1.02)
		cmp, err := compareRuns(testSpec, base, cur)
		if err != nil {
			t.Fatal(err)
		}
		if v := verdictFor(t, cmp, "trials_per_s"); v.Flag != c.flag {
			t.Errorf("scale %v: flag %q, want %q (change %+.3f)", c.scale, v.Flag, c.flag, v.Change)
		}
		if v := verdictFor(t, cmp, "tick_p99_ms"); v.Flag != "" {
			t.Errorf("scale %v: unchanged tick_p99_ms flagged %q", c.scale, v.Flag)
		}
		if cmp.flagged() != (c.flag == "worse") {
			t.Errorf("scale %v: flagged() = %v", c.scale, cmp.flagged())
		}
	}
}

func TestCompareLowerIsBetter(t *testing.T) {
	base := set(100, false, "h", 1)
	cur := set(100, false, "h", 1)
	cur[0].Metrics["tick_p99_ms"] = Metric{Value: 2.5}
	cmp, err := compareRuns(testSpec, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if v := verdictFor(t, cmp, "tick_p99_ms"); v.Flag != "worse" {
		t.Fatalf("p99 2 -> 2.5 ms: flag %q, want worse", v.Flag)
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	base := set(100, false, "h", 1)
	for _, mutate := range []func(*Machine){
		func(m *Machine) { m.CPUModel = "Other CPU" },
		func(m *Machine) { m.NumCPU = 4 },
		func(m *Machine) { m.GOMAXPROCS = 1 },
		func(m *Machine) { m.GoVersion = "go1.23" },
	} {
		cur := set(100, false, "h", 1)
		mutate(&cur[0].Machine)
		if _, err := compareRuns(testSpec, base, cur); !errors.Is(err, errMachineMismatch) {
			t.Errorf("machine %+v: err = %v, want errMachineMismatch", cur[0].Machine, err)
		}
	}
}

func TestCompareReportsOutputDifferences(t *testing.T) {
	cmp, err := compareRuns(testSpec, set(100, false, "aaa", 1), set(100, false, "bbb", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.flagged() || len(cmp.Problems) != 1 {
		t.Fatalf("differing outputs for the same seed not flagged: %+v", cmp.Problems)
	}
}

func TestCompareListsPerLayerWithoutFlags(t *testing.T) {
	base := set(100, true, "", 1)
	cur := set(100, true, "", 1)
	cur[0].Metrics["sim.step_us"] = Metric{Value: 70}
	cmp, err := compareRuns(testSpec, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Verdicts) != 1 {
		t.Fatalf("traced runs compare per-layer metrics only, got %+v", cmp.Verdicts)
	}
	if v := cmp.Verdicts[0]; v.Metric != "sim.step_us" || v.Flag != "" || cmp.flagged() {
		t.Fatalf("per-layer metric flagged: %+v", v)
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rs []Record) string {
		p := filepath.Join(dir, name)
		for _, r := range rs {
			if err := appendRecord(p, r); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"trials_per_s","unit":"1/s","better":"higher","bound":0.1}],"per_layer":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base.jsonl", set(100, false, "h", 0.99, 1, 1.01))
	same := write("same.jsonl", set(100, false, "h", 1, 1.01))
	slow := write("slow.jsonl", set(80, false, "h", 1, 1.01))
	other := set(100, false, "h", 1)
	other[0].Machine.CPUModel = "Other CPU"
	elsewhere := write("other.jsonl", other)

	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-spec", spec, base, same}, 0, "trials_per_s"},
		{[]string{"-spec", spec, base, slow}, 1, "worse"},
		{[]string{"-spec", spec, base, elsewhere}, 2, "refusing"},
		{[]string{"-spec", spec, base}, 2, "usage"},
	} {
		var out, errOut bytes.Buffer
		if code := runCompare(c.args, &out, &errOut); code != c.code {
			t.Errorf("%v: exit %d, want %d\n%s%s", c.args, code, c.code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String()+errOut.String(), c.want) {
			t.Errorf("%v: output lacks %q:\n%s%s", c.args, c.want, out.String(), errOut.String())
		}
	}
}
