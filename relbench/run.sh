#!/usr/bin/env bash
# Builds the benchmark and the netreld daemon from source, then runs the
# benchmark with the given arguments:
#
#   bash relbench/run.sh --workload solve-construct --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# traced-run reports all stay under the build directory ($CARGO_TARGET_DIR
# when set, else .bench_build), so a run reads and writes nothing outside
# the checkout besides the Go toolchain itself.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# Build output goes to stderr: the last line of stdout is the result.
(cd "$here" && go build -o "$out/relbench" . && go build -o "$out/netreld" netrel/cmd/netreld) >&2

exec "$out/relbench" -netreld "$out/netreld" -outdir "$out/traces" "$@"
