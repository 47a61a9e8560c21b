#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs one
# measurement. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload mc-steady --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and any trace file live under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
PERFBENCH_COMMIT=$commit exec "$out/perfbench" --trace-out "$out/trace.jsonl" "$@"
