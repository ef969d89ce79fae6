#!/usr/bin/env bash
# The one entry point of the benchmark, for the pipeline and for humans:
#
#   bash benchmark/run.sh                                   every workload, each in a fresh process
#   bash benchmark/run.sh -trace 1 -out benchmark/out/r.json   ... followed by its traced run
#   bash benchmark/run.sh --workload cold-getpr --seed 3 --seconds 10 --trace 0
#   bash benchmark/run.sh -compare old.json new.json
#   bash benchmark/run.sh -aa 5
#
# It builds the binary once with `go build -o` and runs that, so no
# measurement ever includes a compile. It exits non-zero if the build
# fails, a correctness check fails, or (running every workload at the
# designed 20 s window) a workload yields fewer than 1000 latency samples.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Everything the toolchain writes stays inside the checkout.
build="$root/.bench_build"
mkdir -p "$build/tmp"
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
(
	cd benchmark
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
		go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/pperfbench" .
)
exec "$build/pperfbench" "$@"
