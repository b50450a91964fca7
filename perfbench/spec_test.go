package main

import "testing"

// TestMetricListsMatchBenchmarkJSON keeps the metrics the benchmark prints in
// step with the ones BENCHMARK.json declares, name for name and unit for
// unit.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind          string
		printed, want []metricSpec
	}{
		{"end_to_end", endToEnd, spec.EndToEnd},
		{"per_layer", perLayer, spec.PerLayer},
	} {
		if len(c.printed) != len(c.want) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json declares %d", c.kind, len(c.printed), len(c.want))
			continue
		}
		for i := range c.want {
			if c.printed[i].Name != c.want[i].Name || c.printed[i].Unit != c.want[i].Unit {
				t.Errorf("%s[%d]: the benchmark prints %s (%s), BENCHMARK.json declares %s (%s)", c.kind, i,
					c.printed[i].Name, c.printed[i].Unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

func TestEveryWorkloadHasBothRunners(t *testing.T) {
	for _, name := range []string{"fleet", "trials"} {
		w, ok := workloads[name]
		if !ok || w.run == nil || w.trace == nil {
			t.Errorf("workload %s lacks a runner", name)
		}
	}
}
