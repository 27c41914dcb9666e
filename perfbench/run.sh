#!/bin/sh
# Builds and runs the repository benchmark; see perfbench/README.md.
# Run it from the repository root:
#   sh perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
# Everything it builds or writes stays under .bench_build/.
set -eu
if [ ! -f go.mod ] || [ ! -d noc ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C perfbench -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
