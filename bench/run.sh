#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# leaves behind (binary, Go build cache) stays in .bench_build/ at the
# root of the checkout; arguments pass through to the binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	# HOME too: the go command keeps its telemetry counters under it.
	HOME="$out/home" GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-mod" \
		GOFLAGS= GOTOOLCHAIN=local go build -o "$out/dsspbench" .
)
exec "$out/dsspbench" "$@"
