#!/usr/bin/env bash
# Builds the tcpfair benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash tcpfairbench/run.sh --workload elephants-highbw --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, its temporary files and its
# configuration directory included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/tcpfairbench" && go build -o "$out/tcpfairbench" .)
exec "$out/tcpfairbench" -root "$root" "$@"
