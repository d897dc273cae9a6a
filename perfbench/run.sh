#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Run from the root of a checkout:
#   bash perfbench/run.sh --workload yahoo-catchup --seed 1 --seconds 10 --trace 0
# Everything it writes stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench.new" .) >&2
mv "$out/perfbench.new" "$out/perfbench"
exec "$out/perfbench" "$@"
