package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"structream/internal/engine"
	"structream/internal/health"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

func healthConfig() *health.Config { return &health.Config{DisableProfiles: true} }

// bulkSpec is a closed batch drain: a preloaded backlog drained with the
// AvailableNow trigger at a fixed per-epoch record cap, then restarts on
// the finished checkpoint, each running a small probe of re-appended
// records that checks the restarted query's recovered state.
type bulkSpec struct {
	name    string
	stream  string
	schema  sql.Schema
	cat     *catalog
	sqlText string
	mode    logical.OutputMode
	input   *encodedInput
	probe   [][]msgbus.Record
	options func(ckpt string) engine.Options
	// check verifies the drained sink; checkProbe verifies what a
	// restarted query emitted once n probes in all have been appended.
	check      func(rows []sql.Row) check
	checkProbe func(rows []sql.Row, n int) check
}

// iteration is one drain plus its restarts, measured.
type iteration struct {
	traced                      bool
	setup, drain, plan, compile time.Duration
	cpu                         time.Duration // process CPU time during the drain
	start                       time.Duration
	restart, recovery           []time.Duration // one per restart
	updates                     []time.Duration // updateProbes per restart
	heapMB                      []float64       // heap drain only: live heap above the baseline at each commit
	epochs                      int
	digest                      uint64
	layer                       map[string]float64
	epochMs                     []float64 // traced: each epoch span's duration
}

// drainKind says what a drain is for: timed, untraced or traced, or the
// untimed heap drain.
type drainKind int

const (
	timedDrain drainKind = iota
	tracedDrain
	heapDrain
)

// runBulk repeats drain iterations until the run's time is spent and
// reports medians. A traced run alternates untraced and traced
// iterations, so the tracing overhead compares like with like.
func runBulk(cfg config, spec *bulkSpec) (outcome, error) {
	out := outcome{info: map[string]any{}}
	heap := newHeapSampler()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var setups []float64
	moreSetups := func() error {
		s, err := setupSamples(setupsPerPoint, spec.cat, spec.sqlText, spec.mode, spec.stream, spec.schema, spec.options)
		setups = append(setups, s...)
		return err
	}
	// One untimed (but verified) drain first, so lazily built runtime and
	// engine state (pools, page cache, heap size) is in place before timing.
	if _, _, err := bulkIteration(cfg, spec, heap, timedDrain, &out); err != nil {
		return out, err
	}
	// Then the heap drain: untimed, with a full GC at every epoch commit.
	heapIt, _, err := bulkIteration(cfg, spec, heap, heapDrain, &out)
	if err != nil {
		return out, err
	}
	var plain, traced []iteration
	var spans []span
	for i := 0; ; i++ {
		doTrace := cfg.trace && i%2 == 1
		if err := moreSetups(); err != nil {
			return out, err
		}
		kind := timedDrain
		if doTrace {
			kind = tracedDrain
		}
		it, sp, err := bulkIteration(cfg, spec, heap, kind, &out)
		if err != nil {
			return out, err
		}
		if doTrace {
			traced = append(traced, it)
			if spans == nil {
				spans = sp
			}
		} else {
			plain = append(plain, it)
		}
		enough := len(plain) >= 3 && (!cfg.trace || len(traced) >= 2)
		if time.Now().After(deadline) && enough {
			break
		}
	}

	// Traced and untraced iterations must produce identical verified
	// output, and the same number of epochs: tracing may cost time but
	// must not change what the program does.
	all := append(append([]iteration{heapIt}, plain...), traced...)
	for _, it := range all[1:] {
		if it.digest != all[0].digest {
			out.fail(1, "output digest differs between iterations (traced=%v): %x vs %x", it.traced, it.digest, all[0].digest)
		}
		if it.epochs != all[0].epochs {
			out.fail(1, "epoch count differs between iterations (traced=%v): %d vs %d", it.traced, it.epochs, all[0].epochs)
		}
	}

	col := func(its []iteration, f func(iteration) float64) []float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = f(it)
		}
		return xs
	}
	rows := float64(spec.input.total)
	// Throughput is per second of CPU time: on a shared host the wall time
	// of a drain follows how much CPU the host gives the run, which moved
	// drain throughput by a factor of three between runs of the same code.
	thr := func(it iteration) float64 { return rows / it.cpu.Seconds() }
	wallThr := func(it iteration) float64 { return rows / it.drain.Seconds() }
	setups = append(setups, col(plain, func(it iteration) float64 { return it.setup.Seconds() })...)
	var updates []float64
	for _, it := range plain {
		updates = append(updates, durationsMs(it.updates)...)
	}
	upd := Summarize(updates)
	heapDist := Summarize(heapIt.heapMB)
	out.endToEnd = map[string]float64{
		"throughput_rows_per_s": median(col(plain, thr)),
		"latency_p50_ms":        upd.P50,
		"setup_s":               median(setups),
		"recovery_s":            median(recoveries(plain)),
		"live_heap_mb":          heapDist.P50,
	}
	out.info["iterations_untraced"] = len(plain)
	out.info["iterations_traced"] = len(traced)
	out.info["input_rows"] = spec.input.total
	out.info["epochs_per_drain"] = all[0].epochs
	out.info["throughput_rows_per_s_each"] = col(plain, thr)
	out.info["wall_throughput_rows_per_s"] = median(col(plain, wallThr))
	out.info["wall_throughput_rows_per_s_each"] = col(plain, wallThr)
	out.info["cpu_parallelism_each"] = col(plain, func(it iteration) float64 { return it.cpu.Seconds() / it.drain.Seconds() })
	out.info["setup_s_each"] = setups
	out.info["recovery_s_each"] = recoveries(plain)
	out.info["update_ms"] = upd
	out.info["heap_mb"] = heapDist
	out.info["engine_options"] = describeOptions(spec.options(""))
	if cfg.trace {
		layers := make([]map[string]float64, len(traced))
		for i, it := range traced {
			layers[i] = it.layer
		}
		out.perLayer = medians(layers)
		// Epoch percentiles pool the traced drains: one drain has too few
		// epochs for a tail with ten samples beyond it above the median.
		var pooled []float64
		for _, it := range traced {
			pooled = append(pooled, it.epochMs...)
		}
		ed := Summarize(pooled)
		out.perLayer["engine.epoch_ms_p50"] = ed.P50
		out.perLayer["engine.epoch_ms_tail"] = ed.Tail
		out.info["epoch_ms"] = ed
		untracedThr := median(col(plain, thr))
		tracedThr := median(col(traced, thr))
		out.perLayer["bench.trace_overhead_pct"] = 100 * (untracedThr/tracedThr - 1)
		for _, k := range []string{"serve.frames", "serve.bytes_received", "serve.deliver_ms_p50", "serve.deliver_ms_p99",
			"serve.missing_frames", "loadgen.records", "loadgen.late_ms_p99", "loadgen.late_ms_max"} {
			out.perLayer[k] = 0 // bulk drains have no serving layer and no load generator
		}
		path := spanPath(cfg, "traced")
		if err := writeSpans(path, spans); err != nil {
			return out, fmt.Errorf("write spans: %w", err)
		}
		out.info["spans_file"] = path
		out.info["spans"] = len(spans)
	}
	return out, nil
}

// bulkIteration runs one drain and its restarts on a fresh topic and
// checkpoint.
func bulkIteration(cfg config, spec *bulkSpec, heap *heapSampler, kind drainKind, out *outcome) (iteration, []span, error) {
	traced := kind == tracedDrain
	it := iteration{traced: traced}
	topic, err := preload(spec.stream, spec.input)
	if err != nil {
		return it, nil, err
	}
	fsys, ckpt := checkpoint(spec.name)

	var rec *recorder
	if traced {
		rec = newRecorder(topic.Partitions())
	}
	src := sources.NewCodecBusSource(spec.stream, topic, spec.schema)
	wsrc := traceSource(src, rec)
	sink := sinks.NewMemorySink()
	wsink, _ := traceSink(sink, rec)
	wfs := traceFS(fsys, rec)
	if traced {
		if err := sameInterfaces(src, wsrc, sink, wsink, fsys, wfs); err != nil {
			return it, nil, err
		}
	}
	opts := spec.options(ckpt)
	opts.FS = wfs

	// Preload is done; the heap baseline and the setup clock start here.
	runtime.GC()
	base, _ := heap.read()
	allocs0 := allocsNow(heap)
	pause0 := gcPauseTotal()

	t0 := time.Now()
	pl, err := planQuery(spec.cat, spec.sqlText, spec.mode)
	if err != nil {
		return it, nil, err
	}
	var backlog func() int64
	if rec != nil {
		backlog = func() int64 { return spec.input.total - rec.readTotal() }
	}
	clock := newEpochClock(heap, fsys, rec, backlog)
	clock.forceGC = kind == heapDrain
	tStart := time.Now()
	sq, err := engine.Start(pl.query, map[string]sources.Source{spec.stream: wsrc}, wsink, opts)
	if err != nil {
		return it, nil, fmt.Errorf("start: %w", err)
	}
	cpu0 := processCPU()
	drainStart := time.Now()
	if rec != nil {
		rec.beginDrain(0)
	}
	remove := sq.AddEpochListener(clock.commit)
	it.plan, it.compile, it.start = pl.plan, pl.compile, drainStart.Sub(tStart)
	it.setup = drainStart.Sub(t0)
	if err := sq.AwaitTermination(); err != nil {
		return it, nil, fmt.Errorf("drain: %w", err)
	}
	it.drain = time.Since(drainStart)
	it.cpu = processCPU() - cpu0
	remove()
	drainEnd := time.Now()
	allocs := allocsNow(heap) - allocs0
	pause := gcPauseTotal() - pause0
	order, backlogMax := clock.snapshot()
	it.heapMB = clock.heapAbove(base)
	it.epochs = len(order)
	regSnap := sq.Metrics().Snapshot()

	c := spec.check(sink.Rows())
	c.into(out, "after drain")
	it.digest = c.digest

	for r := 0; r < bulkRestarts; r++ {
		st, rcv, rows, ups, err := restartWithProbe(topic, spec.probe, spec.cat, spec.sqlText, spec.mode,
			spec.stream, wsrc, rec, func() engine.Options {
				o := spec.options(ckpt)
				o.FS = wfs
				return o
			})
		if err != nil {
			return it, nil, err
		}
		it.restart = append(it.restart, st)
		it.recovery = append(it.recovery, rcv)
		it.updates = append(it.updates, ups...)
		pc := spec.checkProbe(rows, (r+1)*(1+updateProbes))
		pc.into(out, fmt.Sprintf("after restart %d", r))
	}

	var spans []span
	if rec != nil {
		spans = rec.take()
		drain := interval{drainStart.Sub(rec.t0).Nanoseconds(), drainEnd.Sub(rec.t0).Nanoseconds()}
		it.layer = layerMetrics(layerInput{
			spans: spans, drain: drain, inputRows: spec.input.total,
			allocBytes: allocs, gcPause: pause, reg: regSnap, backlogMax: backlogMax,
			plan: it.plan, compile: it.compile, start: it.start, restart: it.restart,
		})
		it.epochMs = epochDurations(spans)
	}
	return it, spans, nil
}

// recoveries pools the recovery times of every restart, in seconds.
func recoveries(its []iteration) []float64 {
	var xs []float64
	for _, it := range its {
		for _, d := range it.recovery {
			xs = append(xs, d.Seconds())
		}
	}
	return xs
}

func allocsNow(h *heapSampler) uint64 {
	_, a := h.read()
	return a
}

// layerInput is what one traced iteration measured.
type layerInput struct {
	spans                []span
	drain                interval
	inputRows            int64
	allocBytes           uint64
	gcPause              time.Duration
	reg                  map[string]int64
	backlogMax           int64
	plan, compile, start time.Duration
	restart              []time.Duration
}

// layerMetrics derives the per-layer metrics from one traced iteration's
// spans. Source, sink, WAL and epoch figures cover the drain; state
// figures cover the drain and the restart (recovery reads state files).
func layerMetrics(in layerInput) map[string]float64 {
	m := map[string]float64{
		"planner.plan_ms":    ms(in.plan),
		"planner.compile_ms": ms(in.compile),
		"engine.start_ms":    ms(in.start),
		"engine.restart_ms":  median(durationsMs(in.restart)),
	}
	var (
		epochSpans          []span
		children            = map[int64][]interval{}
		srcIv               []interval
		srcDur              []float64
		srcRows, srcBusy    int64
		sinkCalls, colCalls int64
		sinkRows, sinkBusy  int64
		walWrites, walBytes int64
		walBusy             int64
		stW, stR            int64
		stWB, stRB, stBusy  int64
	)
	for _, s := range in.spans {
		inDrain := strings.HasPrefix(s.Parent, "epoch/") || s.Parent == "drain"
		d := s.End - s.Start
		if s.Name == "epoch" {
			epochSpans = append(epochSpans, s)
			continue
		}
		if inDrain {
			children[s.Epoch] = append(children[s.Epoch], s.interval())
		}
		switch s.Layer {
		case "sources":
			if inDrain {
				srcIv = append(srcIv, s.interval())
				srcDur = append(srcDur, nsToMs(d))
				srcRows += s.Rows
				srcBusy += d
			}
		case "sinks":
			if inDrain {
				sinkCalls++
				if s.Name == "sink.AddColumnBatch" {
					colCalls++
				}
				sinkRows += s.Rows
				sinkBusy += d
			}
		case "wal":
			if inDrain {
				walBusy += d
				if isWrite(s.Name) {
					walWrites++
					walBytes += s.Bytes
				}
			}
		case "state":
			if inDrain || s.Parent == "restart" {
				stBusy += d
				if isWrite(s.Name) {
					stW++
					stWB += s.Bytes
				} else if s.Name == "fs.ReadFile" || s.Name == "fs.ReadFileRange" {
					stR++
					stRB += s.Bytes
				}
			}
		}
	}
	var unattributed int64
	for _, e := range epochSpans {
		unattributed += selfTime(e.interval(), children[e.Epoch])
	}
	ed := Summarize(epochDurations(in.spans))
	srcD := Summarize(srcDur)
	epochs := float64(len(epochSpans))
	drainNs := float64(in.drain.end - in.drain.start)
	m["sources.read_calls"] = float64(len(srcDur))
	m["sources.rows"] = float64(srcRows)
	m["sources.busy_ms"] = nsToMs(srcBusy)
	m["sources.busy_share"] = float64(coveredWithin(in.drain, srcIv)) / drainNs
	m["sources.read_ms_p50"] = srcD.P50
	m["sources.backlog_records_max"] = float64(in.backlogMax)
	m["sinks.calls"] = float64(sinkCalls)
	m["sinks.rows"] = float64(sinkRows)
	m["sinks.busy_ms"] = nsToMs(sinkBusy)
	m["sinks.column_batch_ratio"] = ratio(float64(colCalls), float64(sinkCalls))
	m["wal.write_ops"] = float64(walWrites)
	m["wal.ops_per_epoch"] = ratio(float64(walWrites), epochs)
	m["wal.bytes_written"] = float64(walBytes)
	m["wal.busy_ms"] = nsToMs(walBusy)
	m["state.write_ops"] = float64(stW)
	m["state.read_ops"] = float64(stR)
	m["state.bytes_written"] = float64(stWB)
	m["state.bytes_read"] = float64(stRB)
	m["state.busy_ms"] = nsToMs(stBusy)
	m["state.sstables"] = float64(in.reg["stateSSTables"])
	m["state.compactions"] = float64(in.reg["stateCompactions"])
	hits, misses := float64(in.reg["stateBlockCacheHits"]), float64(in.reg["stateBlockCacheMisses"])
	m["state.block_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.epochs"] = epochs
	m["engine.epoch_ms_p50"] = ed.P50
	m["engine.epoch_ms_tail"] = ed.Tail
	m["engine.unattributed_ms"] = nsToMs(unattributed)
	m["engine.alloc_bytes_per_row"] = ratio(float64(in.allocBytes), float64(in.inputRows))
	m["engine.gc_pause_ms"] = ms(in.gcPause)
	return m
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// epochDurations lists the epoch spans' durations in ms.
func epochDurations(spans []span) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == "epoch" {
			out = append(out, nsToMs(s.End-s.Start))
		}
	}
	return out
}

func isWrite(name string) bool {
	return name == "fs.WriteFile" || name == "fs.Rename" || name == "fs.Remove"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
