#!/usr/bin/env bash
# Builds the benchmark and the omnc-serve daemon from the sources of the
# checkout it is run in, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-quick --seed 1 --seconds 15 --trace 0
#
# Everything it writes lands under .bench_build/: the Go build cache,
# the two binaries, temporary daemon state and the span files of traced
# runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/omnc-serve" ]]; then
	echo "perfbench: run from the root of an omnc checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/omnc-serve" ./cmd/omnc-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
