#!/usr/bin/env bash
# Builds eipbench from the sources of this checkout and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, temporary files, the binary,
# the in-process server's model registry and trace span files. The
# variables below point every place the go command would otherwise write
# to (the user's cache, GOPATH and temporary directories) there, keep it
# from reading the user's go env file, and keep it off the network: the
# local toolchain builds, and the checkout need not be a git repository.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOENV=off

(cd "$bench_dir" && go build -o "$out/eipbench" ./eipbench) >&2
cd "$root"
exec "$out/eipbench" -workdir "$out" "$@"
