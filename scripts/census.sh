#!/bin/sh
# Coverage census (`make census`): which functions does no production entry
# point ever call? Builds every command, every example and the repository
# benchmark with `-cover -coverpkg=oasis/...`, runs them all at small scale
# (~1 min), and prints each function of `oasis` and `oasis/internal/...` that
# stayed at 0.0 % and is not named in scripts/census.allow. A listed function
# is either dead (delete it) or kept on purpose (add it to census.allow with
# the reason). The same goes for every knob nothing turns: an exported leaf
# field of a *Config or *Params struct that no non-test code outside its
# package writes (scripts/fields.go) is listed beside the functions, and is
# made a constant or given an allow line. A gate: exits 1 when a name is
# unexplained or an allowed one is stale (covered or written again, or gone),
# so neither kind of line can pile up. The last line, "census: N ...", is
# what scripts/verify.sh prints.
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
run "$bin/oasis-bench" -run fig6,tab3 -scale 0.05 -values
# racksweep partitions its rack only with more than one thread: run both
# shapes, whatever this machine's CPU count.
run env GOMAXPROCS=1 "$bin/oasis-bench" -run racksweep -scale 0.05
run env GOMAXPROCS=2 "$bin/oasis-bench" -run racksweep -scale 0.05
run "$bin/oasis-pod" -hosts 2 -nics 1 -ssds 1 -instances 1 -workload kv -duration 50ms -stats json
run "$bin/oasis-pod" -hosts 3 -nics 2 -backup -instances 2 -fail-at 100ms -duration 300ms -raft -stats prom
run "$bin/oasis-pod" -hosts 2 -nics 1 -ssds 1 -instances 2 -duration 50ms
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
    }' | sort -u > "$tmp/funcs"
# "oasis/internal/nic:Params.DDIO": knobs with no writer outside their package.
go run scripts/fields.go > "$tmp/fields"
sort -u "$tmp/funcs" "$tmp/fields" > "$tmp/zero"
grep -v '^#' scripts/census.allow | awk 'NF { print $1 }' | sort -u > "$tmp/allowed"
comm -23 "$tmp/zero" "$tmp/allowed" > "$tmp/unexplained"
comm -13 "$tmp/zero" "$tmp/allowed" > "$tmp/stale"

if [ -s "$tmp/unexplained" ]; then
    echo "never called from any production entry point, or never set outside its package, and not in scripts/census.allow:"
    sed 's/^/  /' "$tmp/unexplained"
fi
if [ -s "$tmp/stale" ]; then
    echo "in scripts/census.allow but covered or set now, or gone (drop the line):"
    sed 's/^/  /' "$tmp/stale"
fi
echo "census: $(wc -l < "$tmp/unexplained") unexplained, $(wc -l < "$tmp/allowed") allowed, $(wc -l < "$tmp/stale") stale of $(wc -l < "$tmp/funcs") functions at 0.0 % and $(wc -l < "$tmp/fields") unset knobs"
[ ! -s "$tmp/unexplained" ] && [ ! -s "$tmp/stale" ]
