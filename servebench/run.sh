#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash servebench/run.sh --workload selective --seed 1 --seconds 10 --trace 0
#
# Build cache, temporary files and run artifacts stay inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
work=${CARGO_TARGET_DIR:-.bench_build}
case $work in
/*) ;;
*) work=$root/$work ;;
esac
mkdir -p "$work/gocache" "$work/gotmp" "$work/config"

export GOCACHE=$work/gocache
export GOTMPDIR=$work/gotmp
export GOPATH=$work/gopath
export GOMODCACHE=$work/gopath/pkg/mod
export XDG_CONFIG_HOME=$work/config
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/servebench" && go build -o "$work/servebench" .)
exec "$work/servebench" -workdir "$work" "$@"
