#!/usr/bin/env bash
# Builds the harness from source and runs it from the repository root (the
# model zoo is located from the working directory). Everything the build
# leaves behind — binary, Go build cache, Go config — stays in .bench_build/
# inside the checkout; nothing is read from or written to $HOME.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# The commit is stamped into the binary for the result header; where the
# checkout sits inside someone else's git repository stamping fails, so
# fall back to building without it.
go build -C "$here" -o "$out/pgmr-benchmark" . 2>/dev/null ||
	go build -C "$here" -buildvcs=false -o "$out/pgmr-benchmark" .
cd "$root"
exec "$out/pgmr-benchmark" "$@"
