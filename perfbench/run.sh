#!/usr/bin/env bash
# Builds homeguardd and the perfbench program from the checkout it is run
# in, then runs one benchmark workload against them. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload warm_storm --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and per-run scratch files all live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOENV=off

go build -o "$out/homeguardd" ./cmd/homeguardd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --daemon "$out/homeguardd" --work "$out" "$@"
