#!/usr/bin/env bash
# Builds mhla-serve and the benchmark from the sources of this checkout
# and runs the benchmark; all arguments pass through (see main.go).
# Run it from the repository root:
#
#	bash perfbench/run.sh --workload run-warm --seed 1 --seconds 10 --trace 0
#
# Every build output, cache and log stays under .perfbench/ in the
# checkout.
set -euo pipefail
root=$(pwd)
state="$root/.perfbench"
mkdir -p "$state/bin" "$state/gocache" "$state/gotmp" "$state/config/go/telemetry"
# With telemetry on, every go command may start a detached child that
# outlives it; turning it off leaves no process behind the run.
echo off >"$state/config/go/telemetry/mode"
export GOCACHE="$state/gocache" GOTMPDIR="$state/gotmp" GOPATH="$state/gopath"
export XDG_CONFIG_HOME="$state/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$state/bin/mhla-serve" ./cmd/mhla-serve
(cd perfbench && go build -o "$state/bin/perfbench" .)
exec "$state/bin/perfbench" --server "$state/bin/mhla-serve" "$@"
