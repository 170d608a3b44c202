#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the toolchain writes — build
# cache, temporary files, its own config — is kept inside .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

(
  cd "$here"
  export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
  export TMPDIR="$build/tmp" GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
  go build -o "$build/scbr-benchmark" .
)

cd "$root"
exec "$build/scbr-benchmark" "$@"
