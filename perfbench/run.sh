#!/usr/bin/env bash
# Builds the enumeration-service benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload cold-local --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, temp files, cache directories of the servers under test) stays
# under $CARGO_TARGET_DIR, default .bench_build. Standard output is a table
# of the metrics with their sample counts, then, as its last line, the JSON
# result; build output goes to stderr.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" -refs "$root/perfbench/refs.json" "$@"
