#!/bin/sh
# check.sh — the repo's CI gate: static analysis (go vet + ravenlint),
# the full test suite under the race detector, and a single-iteration
# benchmark smoke run (catches benchmarks that no longer compile or
# crash at runtime). Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

# Every gate names itself before running; on any failure the EXIT trap
# reports which stage tripped, so a red run is attributable at a glance.
stage="(startup)"
sharddir=""
trap 'status=$?; if [ -n "$sharddir" ]; then rm -rf "$sharddir"; fi; if [ "$status" -ne 0 ]; then echo "FAIL at stage: $stage (exit $status)" >&2; fi' EXIT

# Cheap, attributable gates first: compile, vet, the perfbench module
# build, then the full ravenlint v2 suite (all five checks — determinism,
# snapshot, noalloc, mergepurity, noalloc-escape) and its own fixture
# self-test, so a lint regression reports in seconds instead of after the
# ~12 min race stage.
stage="go build"
echo "==> go build ./..."
go build ./...

stage="go vet"
echo "==> go vet ./..."
go vet ./...

# Every Go file must be gofmt-clean (the nested perfbench module too). The
# ravenlint fixture under cmd/ravenlint/testdata/broken/ is deliberately
# unparsable and is skipped; any other parse error fails the stage.
stage="gofmt"
echo "==> gofmt -l"
unformatted=$(find . -name '*.go' -not -path './.git/*' -not -path './.bench_build/*' \
	-not -path './cmd/ravenlint/testdata/broken/*' -exec gofmt -l {} +)
[ -z "$unformatted" ] || {
	echo "gofmt -l lists files that are not gofmt-clean:" >&2
	echo "$unformatted" >&2
	exit 1
}

# perfbench/ is a nested module outside ./..., so the gates above never
# compile it; vet and test it on its own so an API it calls cannot break
# unnoticed.
stage="perfbench build"
echo "==> (cd perfbench && go vet ./... && go test ./...)"
(cd perfbench && go vet ./... && go test -count 1 ./...)

stage="ravenlint (all five checks)"
echo "==> go run ./cmd/ravenlint ./..."
go run ./cmd/ravenlint ./...

stage="ravenlint fixture self-test"
echo "==> go test ./internal/lint ./cmd/ravenlint"
go test -count 1 ./internal/lint ./cmd/ravenlint

# -json smoke: a clean tree must emit exactly the empty JSON array, so
# downstream tooling can parse the output without special-casing.
stage="ravenlint -json smoke"
out="$(go run ./cmd/ravenlint -json ./...)"
[ "$out" = "[]" ] || {
	echo "ravenlint -json on a clean tree printed: $out" >&2
	exit 1
}

# The experiment package's campaigns are the long pole under the race
# detector; the shard-equivalence tests added in PR 6 re-simulate whole
# campaigns per shard count, pushing it to ~12 min on one core. 1200 s
# leaves headroom without masking a genuine hang the way the old 2400 s
# escape hatch did.
stage="go test -race"
echo "==> go test -race ./..."
go test -race -timeout 1200s ./...

stage="benchmark smoke"
echo "==> go test -bench . -benchtime 1x ./..."
go test -run '^$' -bench . -benchtime 1x -timeout 900s ./...

# Shard-equivalence smoke: the multi-process scale-out path (worker
# frames on stdout, by-hand merge) must render the quick fault campaign
# byte-identically to the in-process runner. This exercises the labrunner
# CLI plumbing end to end — the library-level identity is pinned per
# campaign by the shard_equivalence tests.
stage="shard-equivalence smoke"
echo "==> labrunner shard-equivalence smoke (quick faultcampaign, 2 shards)"
sharddir=$(mktemp -d)
go build -o "$sharddir/labrunner" ./cmd/labrunner
"$sharddir/labrunner" -exp faultcampaign -quick -shard 0/2 >"$sharddir/s0.jsonl"
"$sharddir/labrunner" -exp faultcampaign -quick -shard 1/2 >"$sharddir/s1.jsonl"
"$sharddir/labrunner" -exp faultcampaign -quick -merge "$sharddir/s1.jsonl,$sharddir/s0.jsonl" >"$sharddir/merged.txt"
"$sharddir/labrunner" -exp faultcampaign -quick |
	sed -e '/^====/d' -e '/took .*s)$/d' -e '/^$/d' >"$sharddir/inproc.txt"
diff "$sharddir/merged.txt" "$sharddir/inproc.txt" || {
	echo "sharded faultcampaign output diverged from the in-process run" >&2
	exit 1
}

# Chaos + resume smoke: the supervised coordinator must absorb seeded
# worker failures of every kind (a crash, a mid-frame death, stdout
# garbage, a hang caught by -deadline) plus a coordinator halt
# (-dieafter, the deterministic stand-in for a kill) and a -resume from
# the journal — and still render the quick fault campaign byte-identical
# to the in-process run. Chaos seed 16 over the 6-chunk grid schedules
# truncate/garbage/stall/crash on first attempts; retries are spared.
stage="chaos-resume smoke"
echo "==> labrunner chaos-resume smoke (supervised faultcampaign, seeded chaos + journal resume)"
chaos="seed=16,crash=0.25,trunc=0.15,garbage=0.2,stall=0.15"
if "$sharddir/labrunner" -exp faultcampaign -quick -seeds 6 -chunk 1 -shards 2 \
	-chaos "$chaos" -deadline 8s \
	-journal "$sharddir/campaign.journal" -dieafter 2 \
	>/dev/null 2>"$sharddir/chaos1.log"; then
	echo "-dieafter coordinator halt exited 0; expected a reported halt" >&2
	exit 1
fi
grep -q "halted by -dieafter" "$sharddir/chaos1.log" || {
	echo "-dieafter run failed for the wrong reason:" >&2
	cat "$sharddir/chaos1.log" >&2
	exit 1
}
"$sharddir/labrunner" -exp faultcampaign -quick -seeds 6 -chunk 1 -shards 2 \
	-chaos "$chaos" -deadline 8s \
	-journal "$sharddir/campaign.journal" -resume \
	2>"$sharddir/chaos2.log" |
	sed -e '/^([0-9]* shards:/d' >"$sharddir/chaos.txt"
grep -q "resuming" "$sharddir/chaos2.log" || {
	echo "resume run did not report journal coverage" >&2
	exit 1
}
for kind in "crashing" "dying mid-frame" "poisoning stdout" "stalling"; do
	grep -q "chaos: $kind" "$sharddir/chaos1.log" "$sharddir/chaos2.log" || {
		echo "chaos plan never enacted: $kind" >&2
		exit 1
	}
done
"$sharddir/labrunner" -exp faultcampaign -quick -seeds 6 |
	sed -e '/^====/d' -e '/took .*s)$/d' -e '/^$/d' >"$sharddir/inproc6.txt"
diff "$sharddir/chaos.txt" "$sharddir/inproc6.txt" || {
	echo "chaos+resume faultcampaign output diverged from the in-process run" >&2
	exit 1
}

# Fleet smoke: a mixed attack/guard fleet (staggered admissions, 2
# workers) must print, for every session, the digest the equivalent
# single-session ravend run computes — the CLI-level face of the
# fleet-vs-standalone bit-identity the internal/fleet tests pin.
stage="fleet smoke"
echo "==> ravend fleet smoke (mixed fleet digests vs single-session runs)"
go build -o "$sharddir/ravend" ./cmd/ravend
fleetcommon="-teleop 0.4 -value 20000 -delay 150 -duration 64"
# shellcheck disable=SC2086 — fleetcommon is intentionally re-split
"$sharddir/ravend" -fleet 6 -workers 2 -mix none:off,B:mitigate,A:holdsafe \
	-stagger 120 -seed 31 $fleetcommon >"$sharddir/fleet.txt"
grep -c "^session [0-9]" "$sharddir/fleet.txt" | grep -qx 6 || {
	echo "fleet run printed the wrong number of session lines" >&2
	exit 1
}
grep "^session [0-9]" "$sharddir/fleet.txt" |
	while read -r _ idx seed attack guard _ ticks _ digest _; do
		seed=${seed#seed=} attack=${attack#attack=} guard=${guard#guard=}
		ticks=${ticks#ticks=} digest=${digest#digest=}
		# shellcheck disable=SC2086 — fleetcommon is intentionally re-split
		"$sharddir/ravend" -seed "$seed" -attack "$attack" -guard "$guard" \
			-digest $fleetcommon >"$sharddir/single.txt"
		grep -qx "digest=$digest ticks=$ticks" "$sharddir/single.txt" || {
			echo "fleet session $idx (seed $seed, attack $attack, guard $guard) diverged from the single-session run:" >&2
			grep '^digest=' "$sharddir/single.txt" >&2 || true
			echo "fleet printed digest=$digest ticks=$ticks" >&2
			exit 1
		}
	done

# Fleet equivalence guard: sessions ticked on a fleet worker must stay
# bit-identical to the same sessions stepped alone — guard checkpoint
# state included, across feedback gaps with model resync, hold-safe
# engagement, mid-run admission, post-retirement lane compaction and a
# board stall rejecting the frames the guard passed, and for a mixed fleet
# at 1 and 8 workers — and a steady-state fleet tick must stay
# allocation-free.
stage="fleet equivalence guard"
echo "==> fleet equivalence guard"
go test -run 'TestGuardBatchMatchesScalarAcrossEdges|TestFleetMatchesStandaloneAnyWorkerCount' -count 1 ./internal/fleet/
go test -run 'TestFleetTickDoesNotAllocate' -count 1 .

# Trial-fork equivalence guard: Trial.Run forks every attack trial's
# reference, counterfactual and scored sessions off one shared session
# head, runs the counterfactual tail only when the scored run tripped a
# check, and must stay bit-identical per trial to the straight oracle that
# simulates all three from t=0 — Table IV and Fig 9 trials over cold and
# warm reference keys (Table IV's set covers a reused and a forked tail in
# each scenario), every ablation knob, the fork-point edges, and the
# reference trace a forked trial publishes to the cache.
stage="trial-fork equivalence guard"
echo "==> trial-fork equivalence guard"
go test -run 'TestTable4ForkedMatchesStraight|TestFig9ForkedMatchesStraight|TestAblationTrialsForkedMatchStraight|TestTrialForkEdgesMatchStraight|TestForkedTrialPublishesReference' \
	-count 1 ./internal/experiment/

# Allocation-regression guard: steady-state batch stepping must stay at
# 0 allocs/op (TestBatchStepperAllocs pins it via testing.AllocsPerRun),
# and the benchmark itself must report 0 under -benchmem.
stage="batch-stepper allocation guard"
echo "==> batch-stepper allocation guard"
go test -run 'TestBatchStepperAllocs' -count 1 ./internal/dynamics/
go test -run '^$' -bench 'BatchStepRK4' -benchmem -benchtime 100x ./internal/dynamics/ |
	awk '/^BenchmarkBatchStepRK4/ {
		for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op" && $i + 0 != 0) {
			print "FAIL: " $1 " allocates " $i " allocs/op, want 0"; bad = 1
		}
	} END { exit bad }'

echo "OK"
