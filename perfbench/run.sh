#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload seq --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# to $CARGO_TARGET_DIR (default .bench_build) under the current directory, so
# the benchmark writes nothing outside the checkout. README.md in this
# directory describes the workloads and metrics.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

# Keep every file the go command writes inside the build directory, and
# never reach for the network: the module needs nothing beyond the
# repository and the standard library. -trimpath keeps the checkout's
# location out of the binary, so two checkouts build the same program.
(
	cd "$here"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off \
		GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly \
		go build -trimpath -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
