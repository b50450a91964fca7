package lint

import "strings"

// DeterministicPackages are the deterministic-replay package suffixes:
// everything a seeded campaign replays bit-identically, from the console
// emulator down through the physics and back up through the experiment
// drivers. The determinism analyzer is scoped to these; packages outside
// the list (CLI entry points, the linter itself) may read clocks freely.
var DeterministicPackages = []string{
	"internal/sim",
	"internal/dynamics",
	"internal/robot",
	"internal/fault",
	"internal/experiment",
	"internal/core",
	"internal/control",
	"internal/plc",
	"internal/usb",
	"internal/itp",
	"internal/interpose",
	"internal/malware",
	"internal/inject",
	// The scale-out layer: partial aggregates and their merge schedules
	// must be bit-identical at any shard/chunk/worker count, so the
	// reducers and the shard partitioner are replay-deterministic too.
	// That includes the supervision layer (supervisor, journal, chaos):
	// deadlines and backoff run on an injectable Clock, ChaosPlan
	// decisions are a pure hash of (seed, range, attempt), and journal
	// replay rides the same order-insensitive Merger — so recovery from
	// crashes, hangs and coordinator kills cannot perturb the bits.
	"internal/shard",
	"internal/stats",
	"internal/metrics",
	// The fleet engine: per-session digests must be invariant to worker
	// count, lane placement, and admission interleaving, so the whole
	// multi-tenant tick path is replay-deterministic. Tick-latency
	// instrumentation goes through the injectable Clock in fleet.Config.
	"internal/fleet",
}

// MatchDeterministic reports whether an import path is one of the
// deterministic-replay packages.
func MatchDeterministic(importPath string) bool {
	return matchSuffix(importPath, DeterministicPackages)
}

// ReducerPackages are the packages whose merge schedules the sharded
// campaign's bit-identity argument leans on: the shard layer's Merger,
// the stats combine schedule, the metrics aggregates, and the
// experiment-level shard reducers (plus the labrunner CLI that hosts
// shard workers). The mergepurity analyzer is scoped to these.
var ReducerPackages = []string{
	"internal/shard",
	"internal/stats",
	"internal/metrics",
	"internal/experiment",
	"cmd/labrunner",
}

// MatchReducer reports whether an import path is one of the reducer
// packages.
func MatchReducer(importPath string) bool {
	return matchSuffix(importPath, ReducerPackages)
}

func matchSuffix(importPath string, suffixes []string) bool {
	for _, suffix := range suffixes {
		if importPath == suffix || strings.HasSuffix(importPath, "/"+suffix) {
			return true
		}
	}
	return false
}
