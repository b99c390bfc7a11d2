#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): builds the benchmark
# module from source, from wherever it is called, and runs it, passing every
# argument on. The binary, Go's build cache and its temporary files all stay
# in .bench_build/ at the root of the checkout (named in .gitignore), so that
# nothing is read or written outside the checkout; the first call in a fresh
# checkout therefore compiles the standard library too (about a minute).
cd "$(dirname "$0")" || exit 1
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp" || exit 1
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false \
	go build -o "$build/benchmark" . || exit 1
exec "$build/benchmark" "$@"
