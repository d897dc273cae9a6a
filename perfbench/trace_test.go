package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structream/internal/fsx"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// vecOnlySource has ReadVec but not ReadPartition.
type vecOnlySource struct{ *sources.MemorySource }

func (vecOnlySource) ReadVec(int, int64, int64) (*vec.Batch, bool, error) { return nil, false, nil }

// plainFS has no ReadFileRange.
type plainFS struct{ fsx.FS }

func TestWrappersKeepExactlyTheOptionalInterfaces(t *testing.T) {
	topic, err := msgbus.NewBroker().CreateTopic("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]sources.Source{
		"bus (vector+partition)":  sources.NewCodecBusSource("t", topic, aggSchema),
		"partitioned (partition)": sources.NewPartitionedSource("p", aggSchema, [][]sql.Row{nil}),
		"memory (neither)":        sources.NewMemorySource("m", aggSchema),
		"vector only":             vecOnlySource{sources.NewMemorySource("v", aggSchema)},
	}
	snks := map[string]sinks.Sink{
		"memory (column)":     sinks.NewMemorySink(),
		"foreach (no column)": &sinks.ForeachSink{Fn: func(sinks.Batch) error { return nil }},
	}
	fss := map[string]fsx.FS{
		"memory (range)":   newMemFS(),
		"nosync (range)":   fsx.NoSync(),
		"real (range)":     fsx.Real(),
		"plain (no range)": plainFS{fsx.NoSync()},
	}
	rec := newRecorder(2)
	for sn, src := range srcs {
		for kn, snk := range snks {
			for fn, fs := range fss {
				wsink, _ := traceSink(snk, rec)
				if err := sameInterfaces(src, traceSource(src, rec), snk, wsink, fs, traceFS(fs, rec)); err != nil {
					t.Errorf("%s / %s / %s: %v", sn, kn, fn, err)
				}
			}
		}
	}
	// The check itself must notice a dropped interface.
	bus := srcs["bus (vector+partition)"]
	if err := sameInterfaces(bus, &tracedSource{inner: bus, rec: rec}, snks["memory (column)"], snks["memory (column)"], fsx.NoSync(), fsx.NoSync()); err == nil {
		t.Error("a wrapper without ReadVec passed the interface check")
	}
}

func TestTracedSourceForwardsAndRecords(t *testing.T) {
	in, _ := aggInput(1, 100, 10)
	topic, err := preload("kv", in)
	if err != nil {
		t.Fatal(err)
	}
	src := sources.NewCodecBusSource("kv", topic, aggSchema)
	rec := newRecorder(topicParts)
	rec.beginDrain(0)
	w := traceSource(src, rec).(sources.VectorReader)
	got, ok, err := w.ReadVec(1, 0, 25)
	if err != nil || !ok {
		t.Fatalf("ReadVec: ok=%v err=%v", ok, err)
	}
	want, _, _ := src.ReadVec(1, 0, 25)
	if got.NumLive() != want.NumLive() || got.NumLive() != 25 {
		t.Fatalf("traced ReadVec returned %d rows, inner %d", got.NumLive(), want.NumLive())
	}
	spans := rec.take()
	if len(spans) != 1 || spans[0].Name != "source.ReadVec" || spans[0].Rows != 25 || spans[0].Parent != "epoch/0" {
		t.Fatalf("spans = %+v", spans)
	}
	if rec.readTotal() != 25 {
		t.Errorf("readTotal = %d, want 25", rec.readTotal())
	}
}

// TestTracedDrainMatchesUntraced is the benchmark's self-test on a small
// input: a traced drain and a heap drain must verify, produce the same
// output digest and the same epoch count as an untraced one, the traced
// drain must record spans for every layer the workload crosses, and the
// heap drain must read the live heap at every commit.
func TestTracedDrainMatchesUntraced(t *testing.T) {
	cfg := config{workload: "test", seed: 1, outDir: t.TempDir()}
	heap := newHeapSampler()
	yin, ywant, ads, camps := yahooInput(3, 20_000)
	ySpec, err := newYahooSpec(yin, ywant, ads, camps, 20_000/8)
	if err != nil {
		t.Fatal(err)
	}
	ain, awant := aggInput(3, 8_000, 2_000)
	aSpec, err := newAggSpec(ain, awant, 8_000/8)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*bulkSpec{ySpec, aSpec} {
		t.Run(spec.name, func(t *testing.T) {
			var out outcome
			plain, _, err := bulkIteration(cfg, spec, heap, timedDrain, &out)
			if err != nil {
				t.Fatal(err)
			}
			traced, spans, err := bulkIteration(cfg, spec, heap, tracedDrain, &out)
			if err != nil {
				t.Fatal(err)
			}
			heapD, _, err := bulkIteration(cfg, spec, heap, heapDrain, &out)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("oracle: %d of %d failed: %v", out.failed, out.attempted, out.failures)
			}
			if plain.digest != traced.digest || plain.epochs != traced.epochs {
				t.Errorf("untraced digest %x epochs %d, traced digest %x epochs %d",
					plain.digest, plain.epochs, traced.digest, traced.epochs)
			}
			if heapD.digest != plain.digest || heapD.epochs != plain.epochs {
				t.Errorf("heap drain digest %x epochs %d, untraced digest %x epochs %d",
					heapD.digest, heapD.epochs, plain.digest, plain.epochs)
			}
			if len(heapD.heapMB) != heapD.epochs {
				t.Errorf("heap drain read the heap %d times in %d epochs", len(heapD.heapMB), heapD.epochs)
			}
			if plain.epochs < 8 {
				t.Errorf("%d epochs, want at least 8 at this cap", plain.epochs)
			}
			layers := map[string]int{}
			for _, s := range spans {
				layers[s.Layer]++
			}
			for _, l := range []string{"sources", "sinks", "wal", "state", "engine"} {
				if layers[l] == 0 {
					t.Errorf("no %s spans (have %v)", l, layers)
				}
			}
			if got := traced.layer["engine.epochs"]; int(got) != traced.epochs {
				t.Errorf("engine.epochs = %v, want %d", got, traced.epochs)
			}
			if traced.layer["sources.rows"] != float64(spec.input.total) {
				t.Errorf("sources.rows = %v, want %d", traced.layer["sources.rows"], spec.input.total)
			}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := writeSpans(path, spans); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(data), "\n"); n != len(spans) {
				t.Errorf("wrote %d span lines, want %d", n, len(spans))
			}
		})
	}
}
