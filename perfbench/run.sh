#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every build artefact (binary, Go build
# cache, temporary files) stays under .bench_build in the root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters here too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
if ! (cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 3
fi
exec "$build/perfbench" -root "$root" "$@"
