#!/bin/sh
# Full verification: vet + race-enabled tests (torture sweep included).
# Use `go test -short ./...` for the quick tier that skips the crash sweep.
set -eu
cd "$(dirname "$0")/.."
echo ">> gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:"
	echo "$unformatted"
	exit 1
fi
echo ">> go vet ./..."
go vet ./...
echo ">> go test -race ./..."
go test -race ./...
# Background-maintenance race round: the LSM locking protocol (commit vs
# background flush/compaction vs readers vs Close) and the state layer on
# top of it, under the race detector, including the seeded-scheduler
# determinism check. Redundant with `go test -race ./...` above but named
# so the crash-safety contract for background maintenance stays visible.
echo ">> lsm/state background-maintenance race round"
go test -race -count=1 \
	-run 'Maintenance|Background|Close|Ceiling|Seeded|Backlog|Evicts' \
	./internal/lsm/ ./internal/state/ >/dev/null
# Serving-layer race round: the subscription hub's fan-out, eviction
# ladder, cursor resume, transports and churn chaos suite under the race
# detector, at GOMAXPROCS 1, 2 and 4 (-cpu) so goroutine handoffs such as
# the subscriber wakeup really interleave on several cores. Redundant with
# `go test -race ./...` above but named so the live-serving robustness
# contract stays visible.
echo ">> serve hub/churn race round (GOMAXPROCS 1,2,4)"
go test -race -count=1 -cpu 1,2,4 ./internal/serve/ >/dev/null
# Fuzz smoke: a few seconds of coverage-guided input on the state record
# framing shared by deltas, snapshots, and LSM batches — round-trips must
# hold and corrupt input must never panic the decoder.
echo ">> lsm record-framing fuzz smoke"
go test -run '^$' -fuzz 'FuzzRecordBatch' -fuzztime 5s ./internal/lsm/
# Bench-suite smoke: a tiny workload through the JSON benchmark path, so
# `make bench-json` breakage is caught here rather than at report time.
echo ">> ssbench bench smoke"
smoke_json="$(mktemp /tmp/structream-bench-XXXXXX.json)"
go run ./cmd/ssbench -experiment bench -events 100000 -rounds 1 -json "$smoke_json" >/dev/null
grep -q '"tracingOverheadPct"' "$smoke_json" || { echo "bench smoke: bad report"; exit 1; }
grep -q '"stateful-count-lsm-spill-vec"' "$smoke_json" || { echo "bench smoke: missing state-backend scenarios"; exit 1; }
grep -q '"stateful-count-memory-small-vec"' "$smoke_json" || { echo "bench smoke: missing vectorized stateful scenarios"; exit 1; }
grep -q '"stateful-count-memory-small-rowpath"' "$smoke_json" || { echo "bench smoke: missing stateful row-path scenarios"; exit 1; }
grep -q '"vsRowPathSpeedup"' "$smoke_json" || { echo "bench smoke: missing stateful vec-vs-rowpath speedup"; exit 1; }
grep -q '"microbatch-throughput-rowpath"' "$smoke_json" || { echo "bench smoke: missing row-path scenario"; exit 1; }
grep -q '"serve-fanout"' "$smoke_json" || { echo "bench smoke: missing serve-fanout scenario"; exit 1; }
grep -q '"endToEndLatencyP50Us"' "$smoke_json" || { echo "bench smoke: missing end-to-end freshness percentiles"; exit 1; }
grep -q '"watermarkLagP99Us"' "$smoke_json" || { echo "bench smoke: missing watermark-lag percentiles"; exit 1; }
grep -q '"healthOverheadPct"' "$smoke_json" || { echo "bench smoke: missing health-overhead comparison"; exit 1; }
grep -q '"scaling-microbatch-w4"' "$smoke_json" || { echo "bench smoke: missing scaling scenarios"; exit 1; }
grep -q '"scalingEfficiencyPct"' "$smoke_json" || { echo "bench smoke: missing scaling efficiency"; exit 1; }
rm -f "$smoke_json"
# Health-subsystem race round: latency lineage, the anomaly detector and
# flight recorder, the engine wiring for both modes, and the serve-layer
# deliver stamps, under the race detector. Redundant with
# `go test -race ./...` above but named so the health contract stays
# visible.
echo ">> health lineage/recorder race round"
go test -race -count=1 ./internal/health/ >/dev/null
go test -race -count=1 -run 'Health|Lineage|EventTime|Anomaly|Bundle' \
	./internal/engine/ ./internal/serve/ ./internal/monitor/ >/dev/null
# Partitioned-runtime race round: the cluster executor (index-ordered
# results, settle-before-failure, panic capture), the shard
# splitter/exchange, and the engine's N-worker differential plus the
# commit-record crash torture (TestPartitionCrashTorture, w2->w2, w2->w1
# and w1->w2) under the race detector, at GOMAXPROCS 1, 2 and 4 so the
# merge, commit and flush handoffs interleave on several cores. Redundant
# with `go test -race ./...` above but named so the contract that every
# worker degree commits through the one commit record stays visible.
echo ">> partitioned-runtime race round (GOMAXPROCS 1,2,4)"
go test -race -count=1 -cpu 1,2,4 ./internal/cluster/ >/dev/null
go test -race -count=1 -cpu 1,2,4 -run Partition ./internal/shard/ ./internal/engine/ >/dev/null
# Supervised LSM chaos round: crashes and transient faults against a
# stateful query on the LSM backend with background maintenance, which
# must converge to exact output, at GOMAXPROCS 1, 2 and 4.
echo ">> supervised LSM chaos round (GOMAXPROCS 1,2,4)"
go test -race -count=1 -cpu 1,2,4 -run 'TestSupervisedStatefulLSMConvergesUnderChaos' ./internal/supervisor/ >/dev/null
# Vectorization differential smoke: the columnar path must be
# byte-identical to the row path on randomized queries and data, every
# stream-static join shape included, and the engine-level on/off runs
# must agree. The Fig 6a plan-shape test fails if the benchmark query's
# pipeline stops being columnar before the exchange. (The full suite
# also runs under `go test -race ./...` above; this line keeps the
# contract visible.)
echo ">> vectorized/row differential smoke"
go test -run 'TestDifferential|TestProgramMatchesRowEval|TestVectorizeOnOff|TestVectorizeFig6a|TestVectorizeJoinShapes|TestFig6aPlanStaysColumnar' \
	./internal/sql/vec/ ./internal/incremental/ ./internal/engine/ >/dev/null
# Stateful-vectorization race round: the columnar stateful path (batched
# partial aggregation, batched state reads, the vectorized watermark gate)
# against the row path, across both state backends and worker counts
# 1/2/4, plus the stream-static join shapes feeding it, under the race
# detector at GOMAXPROCS 1, 2 and 4. Redundant with `go test -race ./...`
# above but named so the stateful bit-identity contract stays visible.
echo ">> stateful vectorization race round (GOMAXPROCS 1,2,4)"
go test -race -count=1 -cpu 1,2,4 \
	-run 'TestStatefulVectorize|TestVectorizeFig6a|TestVectorizeJoinShapes|TestGetBatch|TestApplyBatch|TestPutBatch' \
	./internal/engine/ ./internal/state/ ./internal/lsm/ >/dev/null
# Opt-in throughput regression gate against the committed BENCH baseline
# (slow: reruns the 2M-event bench suite).
if [ "${STRUCTREAM_BENCH_COMPARE:-}" = "1" ]; then
	echo ">> make bench-compare (throughput regression gate)"
	make bench-compare
fi
# Opt-in chaos tier: randomized fault schedule against the supervised
# runtime (bounded by STRUCTREAM_CHAOS_SECONDS, default 20).
if [ "${STRUCTREAM_CHAOS:-}" = "1" ]; then
	echo ">> make chaos (randomized fault schedule)"
	make chaos
fi
echo "verify: OK"
