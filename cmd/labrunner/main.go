// Command labrunner regenerates the paper's tables and figures from the
// simulation stack (see DESIGN.md's experiment index):
//
//	labrunner -exp table1     Table I   attack-variant matrix
//	labrunner -exp table2     Table II  malicious-wrapper overhead
//	labrunner -exp fig5       Figure 5  USB byte profile
//	labrunner -exp fig6       Figure 6  state inference over nine runs
//	labrunner -exp fig8       Figure 8  dynamic-model validation
//	labrunner -exp table4     Table IV  detection performance
//	labrunner -exp fig9       Figure 9  impact/detection probability sweep
//	labrunner -exp ablation   design-choice ablations
//	labrunner -exp learn      regenerate internal/core/thresholds_gen.go
//	labrunner -exp mitigation  mitigation-strategy comparison (extension)
//	labrunner -exp latency    detection-latency profile (extension)
//	labrunner -exp persistence availability under persistent malware (extension)
//	labrunner -exp faultcampaign accidental-fault kinds × guard policies (extension)
//	labrunner -exp all        everything above except learn
//
// -quick shrinks the campaigns for a fast smoke pass.
//
// Monte Carlo campaigns (table1, table4, fig9, mitigation, faultcampaign)
// also scale out across worker processes on one machine — see
// EXPERIMENTS.md "Sharded campaigns" and "Resilient campaigns":
//
//	labrunner -exp faultcampaign -shards 4          4 supervised workers, merge, render
//	labrunner -exp faultcampaign -shards 4 -journal c.journal [-resume]
//
// The -shards coordinator dispatches chunks of the campaign's job space to
// `-serve` workers it spawns itself: crashed, hung (-deadline) or
// stream-corrupting workers are killed, respawned and their chunks
// re-dispatched; -journal persists accepted frames so a killed coordinator
// (or a campaign spread over several days) restarts with -resume running
// only what is missing; -chaos injects seeded worker failures for drills.
// Each campaign is sized in one function (campaigns.go) that the
// in-process and sharded paths share, so sharded output is byte-identical
// to the in-process run at any shard, chunk and worker count — through
// every failure and resume.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"ravenguard/internal/core"
	"ravenguard/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "labrunner:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp     = flag.String("exp", "all", "experiment id (table1|table2|fig5|fig6|fig8|table4|fig9|ablation|mitigation|latency|persistence|faultcampaign|learn|all)")
		quick   = flag.Bool("quick", false, "shrink campaigns for a fast pass")
		seed    = flag.Int64("seed", 1, "base seed")
		workers = flag.Int("workers", 0, "campaign worker-pool size (0 = GOMAXPROCS); results are seed-identical at any count")
		csvDir  = flag.String("csvdir", "", "also export fig8/table4/fig9 results as CSV, and Fig 8's per-joint model-vs-robot traces as SVG, into this directory")
		outTh   = flag.String("out", "", "learn: also save the learned thresholds to this JSON file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf = flag.String("memprofile", "", "write a heap profile (taken after the experiments) to this file")

		shards = flag.Int("shards", 0, "coordinator mode: run the selected campaign across n supervised worker processes, merge their frames, render")
		chunk  = flag.Int("chunk", 0, "jobs per dispatched chunk (0 = default); bounds worker memory and re-dispatch granularity")
		seeds  = flag.Int("seeds", 0, "faultcampaign: override the seed count for scale runs (0 = campaign default)")

		serve        = flag.Bool("serve", false, "worker mode: serve coordinator-dispatched job ranges (\"lo:hi:attempt\" lines on stdin), one frame per range on stdout")
		chaosSpec    = flag.String("chaos", "", "seeded control-plane chaos plan enacted by -serve workers (e.g. \"seed=7,crash=0.2,stall=0.1\"); coordinator passes it through")
		journalPath  = flag.String("journal", "", "coordinator: persist accepted frames to this fsync'd journal so a killed campaign can -resume")
		resume       = flag.Bool("resume", false, "coordinator: resume a killed campaign from -journal, running only the uncovered job ranges")
		deadline     = flag.Duration("deadline", 0, "coordinator: per-chunk frame deadline; a worker silent past it is killed and its chunk reassigned (0 = off)")
		retries      = flag.Int("retries", 0, "coordinator: max dispatch attempts per chunk before its failure is deterministic and the campaign aborts (0 = 4)")
		dieAfter     = flag.Int("dieafter", 0, "test hook: coordinator halts after journaling n frames, simulating a coordinator kill (finish with -resume)")
		journalFlush = flag.Int("journalflush", 1, "coordinator: fsync the journal every n accepted frames (1 = every frame)")
	)
	flag.Parse()
	experiment.SetWorkers(*workers)

	opts := campaignOpts{exp: *exp, quick: *quick, seed: *seed, seeds: *seeds, chunk: *chunk, workers: *workers}
	super := superOpts{
		chaos: *chaosSpec, journal: *journalPath, resume: *resume,
		deadline: *deadline, retries: *retries, dieAfter: *dieAfter,
		journalFlush: *journalFlush,
	}
	switch {
	case *serve:
		return runShardServe(opts, *chaosSpec)
	case *shards > 0:
		return runShardCoordinator(opts, *shards, super)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "labrunner: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the steady-state live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "labrunner: memprofile:", err)
			}
		}()
	}

	export := func(name string, write func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		path := filepath.Join(*csvDir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Printf("(wrote %s)\n", path)
		}
		return err
	}

	run := func(name string, f func() error) error {
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("(%s took %.1fs)\n\n", name, time.Since(start).Seconds())
		return nil
	}

	all := *exp == "all"
	ran := false

	if all || *exp == "table2" {
		ran = true
		calls := 50000
		if *quick {
			calls = 5000
		}
		if err := run("Table II", func() error {
			res, err := experiment.RunTable2(experiment.Table2Config{Calls: calls})
			if err != nil {
				return err
			}
			res.Write(os.Stdout)
			return nil
		}); err != nil {
			return err
		}
	}

	if all || *exp == "fig5" {
		ran = true
		if err := run("Figure 5", func() error {
			res, err := experiment.RunFig5(*seed)
			if err != nil {
				return err
			}
			res.Write(os.Stdout)
			return nil
		}); err != nil {
			return err
		}
	}

	if all || *exp == "fig6" {
		ran = true
		if err := run("Figure 6", func() error {
			res, err := experiment.RunFig6(*seed)
			if err != nil {
				return err
			}
			res.Write(os.Stdout)
			return nil
		}); err != nil {
			return err
		}
	}

	if all || *exp == "fig8" {
		ran = true
		runs := 10
		if *quick {
			runs = 3
		}
		if err := run("Figure 8", func() error {
			res, err := experiment.RunFig8(experiment.Fig8Config{Runs: runs, BaseSeed: *seed})
			if err != nil {
				return err
			}
			res.Write(os.Stdout)
			if err := export("fig8.csv", func(w io.Writer) error { return experiment.WriteFig8CSV(w, res) }); err != nil {
				return err
			}
			if *csvDir == "" {
				return nil
			}
			// The per-joint trace plots, under the shipped Euler model.
			tr, err := experiment.RunFig8Trace(*seed, "euler")
			if err != nil {
				return err
			}
			for j := 0; j < 3; j++ {
				if err := export(fmt.Sprintf("fig8_trace_j%d.svg", j+1), func(w io.Writer) error { return tr.WriteSVG(w, j) }); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	if all || *exp == "table1" {
		ran = true
		if err := run("Table I", func() error {
			res, err := experiment.RunTable1(*seed)
			if err != nil {
				return err
			}
			res.Write(os.Stdout)
			return nil
		}); err != nil {
			return err
		}
	}

	if all || *exp == "table4" {
		ran = true
		if err := run("Table IV", func() error {
			res, err := experiment.RunTable4(table4Config(opts))
			if err != nil {
				return err
			}
			res.Write(os.Stdout)
			return export("table4.csv", func(w io.Writer) error { return experiment.WriteTable4CSV(w, res) })
		}); err != nil {
			return err
		}
	}

	if all || *exp == "fig9" {
		ran = true
		if err := run("Figure 9", func() error {
			res, err := experiment.RunFig9(fig9Config(opts))
			if err != nil {
				return err
			}
			res.Write(os.Stdout)
			return export("fig9.csv", func(w io.Writer) error { return experiment.WriteFig9CSV(w, res) })
		}); err != nil {
			return err
		}
	}

	if all || *exp == "ablation" {
		ran = true
		runs := 240
		if *quick {
			runs = 60
		}
		// One campaign scores all four ablations; the first block runs it
		// (and its took line times it), every block prints its own table.
		var results []experiment.AblationResult
		for i, name := range []string{"alarm fusion", "threshold scale", "detector placement", "model resync scheme"} {
			if err := run("Ablation: "+name, func() error {
				if results == nil {
					var err error
					if results, err = experiment.RunAblations(experiment.AblationConfig{Runs: runs, BaseSeed: *seed}); err != nil {
						return err
					}
				}
				results[i].Write(os.Stdout)
				return nil
			}); err != nil {
				return err
			}
		}
	}

	if all || *exp == "mitigation" {
		ran = true
		if err := run("Mitigation comparison", func() error {
			// One sweep shares each attacked session's head across the
			// three values; results are byte-identical to per-value runs.
			results, err := experiment.RunMitigationSweep(mitigationSweep(opts))
			if err != nil {
				return err
			}
			for _, res := range results {
				res.Write(os.Stdout)
				fmt.Println()
				if err := export(fmt.Sprintf("mitigation_%d.csv", res.Config.Value), func(w io.Writer) error {
					return experiment.WriteMitigationCSV(w, res)
				}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	if all || *exp == "latency" {
		ran = true
		runs := 20
		if *quick {
			runs = 6
		}
		if err := run("Detection latency", func() error {
			res, err := experiment.RunLatency(experiment.LatencyConfig{RunsPerValue: runs, BaseSeed: *seed})
			if err != nil {
				return err
			}
			res.Write(os.Stdout)
			return export("latency.csv", func(w io.Writer) error { return experiment.WriteLatencyCSV(w, res) })
		}); err != nil {
			return err
		}
	}

	if all || *exp == "persistence" {
		ran = true
		attempts := 20
		if *quick {
			attempts = 6
		}
		if err := run("Availability under persistent malware", func() error {
			res, err := experiment.RunPersistence(experiment.PersistenceConfig{
				Attempts: attempts, BaseSeed: *seed,
			})
			if err != nil {
				return err
			}
			res.Write(os.Stdout)
			return nil
		}); err != nil {
			return err
		}
	}

	if all || *exp == "faultcampaign" {
		ran = true
		if err := run("Fault campaign", func() error {
			res, err := experiment.RunFaultCampaign(faultCampaignConfig(opts))
			if err != nil {
				return err
			}
			res.Write(os.Stdout)
			return nil
		}); err != nil {
			return err
		}
	}

	if *exp == "learn" {
		ran = true
		cfg := core.LearnConfig{BaseSeed: *seed}
		if *quick {
			cfg.Runs = 40
		}
		if err := run("Threshold learning", func() error {
			th, err := core.Learn(cfg)
			if err != nil {
				return err
			}
			fmt.Println("// paste into internal/core/thresholds_gen.go:")
			fmt.Printf("var generatedThresholds = Thresholds{\n")
			fmt.Printf("\tMotorVel:   [3]float64{%.5g, %.5g, %.5g},\n", th.MotorVel[0], th.MotorVel[1], th.MotorVel[2])
			fmt.Printf("\tMotorAccel: [3]float64{%.5g, %.5g, %.5g},\n", th.MotorAccel[0], th.MotorAccel[1], th.MotorAccel[2])
			fmt.Printf("\tJointVel:   [3]float64{%.5g, %.5g, %.5g},\n", th.JointVel[0], th.JointVel[1], th.JointVel[2])
			fmt.Printf("}\n")
			if *outTh != "" {
				if err := th.Save(*outTh); err != nil {
					return err
				}
				fmt.Printf("(saved to %s)\n", *outTh)
			}
			return nil
		}); err != nil {
			return err
		}
	}

	if !ran {
		return fmt.Errorf("unknown -exp %q", *exp)
	}
	return nil
}
