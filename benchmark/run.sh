#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write stays inside the checkout: the binary, the Go build cache
# and the toolchain's own scratch files live in .bench_build/, results in
# benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/c2nn-benchmark" .) >&2
exec "$build/c2nn-benchmark" -out-dir "$here/out" "$@"
