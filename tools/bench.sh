#!/bin/sh
# bench.sh — the two campaign probes perfbench does not take: how a
# supervised labrunner campaign scales over worker processes, and what its
# journal costs. Emits one JSON record. (Per-layer and fleet numbers come
# from perfbench/run.sh; Go micro-benchmarks from go test -bench; the fleet
# SLO grid from ravend -fleet N -workers W -fleetout FILE.)
#
# Usage: tools/bench.sh [-s exp] [-j exp] [-x "extra labrunner args"] [-o file]
#   -s  measure multi-process shard scaling of this campaign
#       (labrunner -exp <exp> -quick -shards {1,2,4,8}); each run's
#       trials/sec, peak worker RSS and total worker CPU land in a
#       "shard_scaling" array in the JSON
#   -j  measure journaling overhead of this campaign: the supervised
#       coordinator run with and without -journal (best wall of 5 each),
#       reported as a "journal_overhead" object in the JSON — the
#       fault-tolerance budget is <5% over the plain run
#   -x  extra labrunner flags for the -s and -j runs (e.g. "-seeds 8")
#   -o  output JSON path (default stdout)
set -eu

cd "$(dirname "$0")/.."

out=""
shardexp=""
shardextra=""
journalexp=""
while getopts "o:s:x:j:" opt; do
	case $opt in
	o) out=$OPTARG ;;
	s) shardexp=$OPTARG ;;
	x) shardextra=$OPTARG ;;
	j) journalexp=$OPTARG ;;
	*) exit 2 ;;
	esac
done
if [ -z "$shardexp" ] && [ -z "$journalexp" ]; then
	echo "usage: tools/bench.sh [-s exp] [-j exp] [-x \"extra labrunner args\"] [-o file]" >&2
	exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
shardtmp="$tmp/shards.txt"
journaltmp="$tmp/journal.txt"
: >"$shardtmp"
: >"$journaltmp"
go build -o "$tmp/labrunner" ./cmd/labrunner

# Shard-scaling sweep: spawn the campaign at 1/2/4/8 worker processes and
# record each coordinator summary line. The absolute trials/sec is the
# measurement; speedup beyond 1 shard is bounded by the machine's core
# count (the merged result is byte-identical at every shard count either
# way — that is what the shard_equivalence tests pin).
if [ -n "$shardexp" ]; then
	for n in 1 2 4 8; do
		echo "==> labrunner -exp $shardexp -quick -shards $n $shardextra" >&2
		# shellcheck disable=SC2086 — shardextra is intentionally re-split
		"$tmp/labrunner" -exp "$shardexp" -quick -shards "$n" $shardextra |
			sed -nE 's|^\(([0-9]+) shards: ([0-9]+) jobs, ([0-9]+) trials in ([0-9.]+)s = ([0-9.]+) trials/s; peak worker RSS ([0-9.]+) MB; worker CPU ([0-9.]+)s\)$|\1 \2 \3 \4 \5 \6 \7|p' |
			while read -r shards jobs trials wall rate rss cpu; do
				printf '{"shards": %s, "jobs": %s, "trials": %s, "wall_s": %s, "trials_per_s": %s, "peak_worker_rss_mb": %s, "worker_cpu_s": %s}\n' \
					"$shards" "$jobs" "$trials" "$wall" "$rate" "$rss" "$cpu"
			done >>"$shardtmp"
	done
fi

# Journaling-overhead probe: the supervised coordinator with -journal
# fsyncs every accepted frame before dispatch continues, so the price of
# crash-recoverability is pure I/O on the coordinator. Best wall of 5
# per arm smooths 1-core scheduler noise; an unrecorded warmup run plus
# alternating the arm order per rep keeps cold caches and ambient load
# drifts from biasing either arm. Wall time is parsed from the
# coordinator summary line.
if [ -n "$journalexp" ]; then
	echo "==> labrunner -exp $journalexp -quick -shards 2 (warmup)" >&2
	# shellcheck disable=SC2086 — shardextra is intentionally re-split
	"$tmp/labrunner" -exp "$journalexp" -quick -shards 2 $shardextra >/dev/null
	rep=1
	while [ "$rep" -le 5 ]; do
		if [ $((rep % 2)) -eq 1 ]; then
			order="plain journal"
		else
			order="journal plain"
		fi
		for mode in $order; do
			rm -f "$tmp/journal"
			if [ "$mode" = journal ]; then
				set -- -journal "$tmp/journal"
			else
				set --
			fi
			echo "==> labrunner -exp $journalexp -quick -shards 2 ($mode, rep $rep)" >&2
			# shellcheck disable=SC2086 — shardextra is intentionally re-split
			"$tmp/labrunner" -exp "$journalexp" -quick -shards 2 $shardextra "$@" |
				sed -nE "s|^\(([0-9]+) shards: ([0-9]+) jobs, ([0-9]+) trials in ([0-9.]+)s = .*\$|$mode \4|p" >>"$journaltmp"
		done
		rep=$((rep + 1))
	done
fi

awk -v goversion="$(go version | awk '{print $3}')" \
	-v shardfile="$shardtmp" -v shardexp="$shardexp" \
	-v journalfile="$journaltmp" -v journalexp="$journalexp" '
BEGIN {
	printf "{\n"
	printf "  \"go\": \"%s\"", goversion
	nshard = 0
	while ((getline line < shardfile) > 0) shardrows[nshard++] = line
	if (nshard > 0) {
		printf ",\n  \"shard_scaling\": {\n"
		printf "    \"campaign\": \"%s\",\n", shardexp
		printf "    \"runs\": [\n"
		for (i = 0; i < nshard; i++)
			printf "      %s%s\n", shardrows[i], (i < nshard - 1 ? "," : "")
		printf "    ]\n  }"
	}
	while ((getline line < journalfile) > 0) {
		split(line, f, " ")
		if (!(f[1] in best) || f[2] + 0 < best[f[1]] + 0) best[f[1]] = f[2]
		sawjournal = 1
	}
	if (sawjournal) {
		printf ",\n  \"journal_overhead\": {\n"
		printf "    \"campaign\": \"%s\",\n", journalexp
		printf "    \"plain_wall_s\": %s,\n", best["plain"]
		printf "    \"journal_wall_s\": %s,\n", best["journal"]
		printf "    \"overhead_pct\": %.1f\n", (best["journal"] - best["plain"]) / best["plain"] * 100
		printf "  }"
	}
	printf "\n}\n"
}' >"${out:-/dev/stdout}"
