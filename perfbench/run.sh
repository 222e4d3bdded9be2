#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# arguments given (see README.md).  Run from the repository root.  Build
# cache, temporary files, binary and Chrome traces stay under .bench_build
# in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/traces" "$@"
