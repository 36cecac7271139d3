#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh steady -runs 5 -workloads ec-degraded
#
# Everything the build and the run leave behind (Go build cache, binary,
# store directories, span dumps) goes under .bench_build/ in the current
# directory; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
# The go command keeps its settings and telemetry under the user config
# directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
if [ "${1:-}" = steady ]; then
	shift
	exec "$out/perfbench" steady -root "$root" "$@"
fi
exec "$out/perfbench" -root "$root" "$@"
