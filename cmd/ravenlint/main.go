// Command ravenlint is the repository's custom static-analysis gate. It
// proves at build time the five invariants the simulation pipeline's
// correctness argument leans on:
//
//	determinism     no wall clocks, global math/rand, or order-leaking
//	                map iteration in the deterministic-replay packages;
//	snapshot        capture/restore pairs cover every field of their
//	                type, so snapshot/fork trials cannot silently
//	                diverge;
//	noalloc         //ravenlint:noalloc-annotated hot-path functions are
//	                free of allocating constructs;
//	mergepurity     reducers reachable from shard.Merger, stats.Forest,
//	                and the metrics Merge methods are order-insensitive;
//	noalloc-escape  `go build -gcflags=-m` evidence that no annotated
//	                noalloc function contains a compiler-proven heap
//	                escape.
//
// Usage:
//
//	go run ./cmd/ravenlint [-checks <list>|all] [-json] [packages]
//
// Packages default to ./... . Exit status is 0 when clean, 1 when any
// finding is reported, and 2 when the analysis itself could not run
// (unknown check, unparseable or untypecheckable package, failed escape
// build). With -json the findings are printed as a JSON array (empty
// tree prints []) of objects {file, line, col, check, severity,
// message}, sorted by position; severity is "error" for invariant
// violations and "warning" for annotation hygiene, and both fail the
// run.
//
// Findings are suppressed, with a recorded reason, by
// `//ravenlint:allow <check> <reason>` on the offending line (or the
// line above, or the enclosing function's doc comment), and snapshot
// fields by `//ravenlint:snapshot-ignore <reason>`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ravenguard/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ravenlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "all", "comma-separated checks to run: "+strings.Join(lint.AllChecks, ", ")+" (or all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array of {file, line, col, check, severity, message}")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	sel, err := lint.Select(*checks, true)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var diags []lint.Diagnostic
	if len(sel.Analyzers) > 0 {
		pkgs, err := lint.Load(".", patterns)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		diags = lint.Run(pkgs, sel.Analyzers)
	}
	if sel.Escape {
		escDiags, err := lint.EscapeCheck(".", patterns)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		diags = append(diags, escDiags...)
		lint.SortDiagnostics(diags)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "ravenlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
