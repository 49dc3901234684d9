#!/bin/sh
# Coverage census (`make census`): which functions does no production entry
# point ever call? Builds every command, every example and the repository
# benchmark with `-cover -coverpkg=oasis/...`, runs them all at small scale
# (~1 min), and prints each function of `oasis` and `oasis/internal/...` that
# stayed at 0.0 % and is not named in scripts/census.allow. A listed function
# is either dead (delete it) or kept on purpose (add it to census.allow with
# the reason). Report-only: exits 0 unless a run itself fails. The last line,
# "census: N ...", is what scripts/verify.sh prints.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov" "$tmp/out"
export GOCOVERDIR="$tmp/cov"

go build -cover -coverpkg=oasis/... -o "$tmp/bin/" ./cmd/... ./examples/...
go build -C bench -cover -coverpkg=oasis/... -o "$tmp/bin/bench" .

run() { "$@" > /dev/null; }
bin="$tmp/bin"
run "$bin/oasis-bench" -list
run "$bin/oasis-bench" -run all -scale 0.05
run "$bin/oasis-bench" -run fig6,tab3 -scale 0.05 -parallel -values
run "$bin/oasis-bench" -run racksweep -exec perpod -scale 0.05
run "$bin/oasis-pod" -hosts 2 -nics 1 -ssds 1 -instances 1 -workload kv -duration 50ms -stats json
run "$bin/oasis-pod" -hosts 3 -nics 2 -backup -instances 2 -fail-at 100ms -duration 300ms -raft -stats prom
run "$bin/oasis-pod" -hosts 2 -nics 1 -ssds 1 -instances 2 -shared-core -duration 50ms
run "$bin/oasis-trace" -kind packets -span 10ms -series
run "$bin/oasis-trace" -kind packets -rack A -span 10ms
run "$bin/oasis-trace" -kind alloc -hosts 64
for ex in examples/*; do
    run "$bin/$(basename "$ex")"
done
# All four workloads, one traced rep each, and the layer probes; -compare too.
run "$bin/bench" -seed 1 -seconds 1 -reps 1 -trace 1 -out "$tmp/out"
run "$bin/bench" -compare "$tmp/out/results.json" "$tmp/out/results.json"

# "oasis/internal/sim/sim.go:152:  New  0.0%" -> "oasis/internal/sim:New".
go tool covdata func -i="$tmp/cov" |
    awk '$NF == "0.0%" && ($1 ~ /^oasis\/internal\// || $1 ~ /^oasis\/[^\/]*\.go:/) {
        split($1, loc, ":"); pkg = loc[1]; sub(/\/[^\/]*$/, "", pkg)
        name = $2; sub(/^\*/, "", name)
        print pkg ":" name
    }' | sort -u > "$tmp/zero"
grep -v '^#' scripts/census.allow | awk 'NF { print $1 }' | sort -u > "$tmp/allowed"
comm -23 "$tmp/zero" "$tmp/allowed" > "$tmp/unexplained"
comm -13 "$tmp/zero" "$tmp/allowed" > "$tmp/stale"

if [ -s "$tmp/unexplained" ]; then
    echo "never called from any production entry point, and not in scripts/census.allow:"
    sed 's/^/  /' "$tmp/unexplained"
fi
if [ -s "$tmp/stale" ]; then
    echo "in scripts/census.allow but covered now, or gone (drop the line):"
    sed 's/^/  /' "$tmp/stale"
fi
echo "census: $(wc -l < "$tmp/unexplained") unexplained, $(wc -l < "$tmp/allowed") allowed, $(wc -l < "$tmp/stale") stale of $(wc -l < "$tmp/zero") functions at 0.0 %"
