package main

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"structream/internal/engine"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
)

// check is one oracle verdict: how many result operations were checked,
// how many were wrong or missing, why, and a digest of the verified
// output so traced and untraced runs can be compared.
type check struct {
	attempted int64
	failed    int64
	causes    []string
	digest    uint64
}

func (c *check) bad(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	c.failed += n
	if len(c.causes) < 5 {
		c.causes = append(c.causes, fmt.Sprintf(format, args...))
	}
}

func (c *check) into(o *outcome, phase string) {
	o.attempted += c.attempted
	if c.failed > 0 {
		o.fail(c.failed, "%s: %s", phase, strings.Join(c.causes, "; "))
	}
}

// compareCounts checks got against want key by key; every wrong, missing
// or unexpected key is one failed operation.
func compareCounts(got, want map[string]int64) check {
	c := check{attempted: int64(len(want))}
	for k, n := range want {
		g, ok := got[k]
		switch {
		case !ok:
			c.bad(1, "group %s missing (want %d)", k, n)
		case g != n:
			c.bad(1, "group %s = %d, want %d", k, g, n)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			c.bad(1, "unexpected group %s = %d", k, g)
		}
	}
	c.digest = digestCounts(got)
	return c
}

func digestCounts(m map[string]int64) uint64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d;", k, m[k])
	}
	return h.Sum64()
}

// encodedInput is generated input: codec-framed records per topic
// partition, held as one payload arena per partition plus pointer-free
// offsets, so the benchmark's copy of the input adds nothing for the
// garbage collector to scan while the program runs. Records are
// materialized only when appended to a topic.
type encodedInput struct {
	parts []encodedPart
	total int64
}

type encodedPart struct {
	arena []byte
	ends  []int   // ends[i]: end of record i's payload in arena
	ts    []int64 // record timestamps
}

func newEncodedInput(partitions int) *encodedInput {
	return &encodedInput{parts: make([]encodedPart, partitions)}
}

// offHeap moves the payload arenas out of the Go heap, into anonymous
// mappings kept until the process exits. The GC paces itself by the live
// heap, so tens of megabytes of generator input in the heap would make
// the program collect up to three times less often than it does when its
// input comes from elsewhere. It also leaves the live heap few readings:
// on live-serve, one GC a second rather than about three.
func (in *encodedInput) offHeap() error {
	for p := range in.parts {
		a := in.parts[p].arena
		if len(a) == 0 {
			continue
		}
		m, err := syscall.Mmap(-1, 0, len(a), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return fmt.Errorf("map input arena: %w", err)
		}
		copy(m, a)
		in.parts[p].arena = m
	}
	return nil
}

// addChunk encodes rows (record i of the whole input goes to partition
// i mod partitions) with ts as each record's timestamp.
func (in *encodedInput) addChunk(rows []sql.Row, ts func(sql.Row) int64) {
	enc := codec.NewEncoder(128)
	for _, r := range rows {
		enc.Reset()
		enc.PutRow(r)
		p := &in.parts[in.total%int64(len(in.parts))]
		p.arena = append(p.arena, enc.Bytes()...)
		p.ends = append(p.ends, len(p.arena))
		p.ts = append(p.ts, ts(r))
		in.total++
	}
}

// records materializes records [lo, hi) of partition p.
func (in *encodedInput) records(p, lo, hi int) []msgbus.Record {
	part := &in.parts[p]
	out := make([]msgbus.Record, 0, hi-lo)
	for i := lo; i < hi; i++ {
		start := 0
		if i > 0 {
			start = part.ends[i-1]
		}
		end := part.ends[i]
		out = append(out, msgbus.Record{Timestamp: part.ts[i], Value: part.arena[start:end:end]})
	}
	return out
}

// head returns the first n records of each partition, in partition order.
func (in *encodedInput) head(n int) [][]msgbus.Record {
	out := make([][]msgbus.Record, len(in.parts))
	for p := range in.parts {
		out[p] = in.records(p, 0, min(n, len(in.parts[p].ends)))
	}
	return out
}

// preload creates a fresh topic holding the whole input.
func preload(name string, in *encodedInput) (*msgbus.Topic, error) {
	topic, err := msgbus.NewBroker().CreateTopic(name, len(in.parts))
	if err != nil {
		return nil, err
	}
	for p := range in.parts {
		if _, err := topic.Append(p, in.records(p, 0, len(in.parts[p].ends))...); err != nil {
			return nil, err
		}
	}
	return topic, nil
}

func appendAll(topic *msgbus.Topic, parts [][]msgbus.Record) error {
	for p, recs := range parts {
		if len(recs) == 0 {
			continue
		}
		// Append stamps offsets into the slice it is given; hand it a copy
		// so shared input stays untouched.
		if _, err := topic.Append(p, append([]msgbus.Record(nil), recs...)...); err != nil {
			return err
		}
	}
	return nil
}

// decodeAll decodes records back into rows (oracles only; off the clock).
func decodeAll(parts [][]msgbus.Record) ([]sql.Row, error) {
	var rows []sql.Row
	for _, recs := range parts {
		for _, r := range recs {
			row, err := codec.DecodeRow(r.Value)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ckptSeq numbers checkpoints, so every one gets a path of its own.
var ckptSeq atomic.Int64

// checkpoint returns a fresh, empty checkpoint: an in-memory FS of its
// own and a path in it. See memFS for why checkpoints are not on disk.
func checkpoint(prefix string) (*memFS, string) {
	return newMemFS(), fmt.Sprintf("/ckpt/%s-%d", prefix, ckptSeq.Add(1))
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config, label string) string {
	return filepath.Join(cfg.outDir, "perfbench-spans",
		fmt.Sprintf("%s-seed%d-%s.jsonl", cfg.workload, cfg.seed, label))
}

// epochClock is the query's epoch listener: it records the order of
// commits, (traced) closes the recorder's epoch span and samples the source
// backlog, and (forceGC, on the heap drain) runs a full GC and reads the
// live heap, less the checkpoint bytes an in-memory FS holds, which would
// sit on disk in a deployment. It runs on the engine's commit path, so
// unless forceGC is set it only takes a short lock and reads counters;
// with forceGC the engine waits for the GC.
type epochClock struct {
	heap    *heapSampler
	fs      *memFS
	rec     *recorder
	backlog func() int64 // nil when untraced
	forceGC bool

	mu         sync.Mutex
	seen       map[int64]bool
	order      []int64
	readings   []uint64 // forceGC: one per commit
	backlogMax int64
}

func newEpochClock(heap *heapSampler, fs *memFS, rec *recorder, backlog func() int64) *epochClock {
	return &epochClock{heap: heap, fs: fs, rec: rec, backlog: backlog, seen: map[int64]bool{}}
}

// programHeap is the live heap less the checkpoint bytes held in memory.
func (c *epochClock) programHeap() uint64 {
	live, _ := c.heap.read()
	if held := c.fs.held(); held < live {
		return live - held
	}
	return 0
}

func (c *epochClock) commit(e int64) {
	var live uint64
	if c.forceGC {
		runtime.GC()
		live = c.programHeap()
	}
	var backlog int64
	if c.backlog != nil {
		backlog = c.backlog()
	}
	c.mu.Lock()
	dup := c.seen[e]
	if !dup {
		c.seen[e] = true
		c.order = append(c.order, e)
	}
	if c.forceGC {
		c.readings = append(c.readings, live)
	}
	if backlog > c.backlogMax {
		c.backlogMax = backlog
	}
	c.mu.Unlock()
	if c.rec != nil && !dup {
		c.rec.committed(e)
	}
}

// heapAbove lists the live-heap readings in MB above base.
func (c *epochClock) heapAbove(base uint64) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.readings))
	for i, r := range c.readings {
		out[i] = (float64(r) - float64(base)) / (1 << 20)
	}
	return out
}

func (c *epochClock) snapshot() (order []int64, backlogMax int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.order...), c.backlogMax
}

// baseOptions are the engine options every workload starts from: the
// defaults a user gets (tracing and health on, default GOGC and
// GOMAXPROCS), except that flight-recorder profile capture is off — a
// one-off diagnostic, not steady-state work. The checkpoint filesystem is
// set by whoever starts the query, from checkpoint.
func baseOptions(name, ckpt string) engine.Options {
	return engine.Options{
		Name:         name,
		Checkpoint:   ckpt,
		HealthConfig: healthConfig(),
	}
}

// describeOptions renders the engine options a workload used, for
// provenance.
func describeOptions(o engine.Options) map[string]any {
	vectorize := o.Vectorize == nil || *o.Vectorize
	backend := o.StateBackend
	if backend == "" {
		backend = "memory"
	}
	trigger := "default ProcessingTime(0)"
	if o.Trigger != nil {
		trigger = fmt.Sprintf("%T%+v", o.Trigger, o.Trigger)
	}
	return map[string]any{
		"trigger":              trigger,
		"maxRecordsPerTrigger": o.MaxRecordsPerTrigger,
		"numPartitions":        o.NumPartitions,
		"workers":              o.Workers,
		"stateBackend":         backend,
		"stateMemtableBytes":   o.StateMemtableBytes,
		"vectorize":            vectorize,
		"fs":                   "in-memory (perfbench memFS)",
		"tracing":              !o.DisableTracing,
		"health":               !o.DisableHealth,
		"healthProfiles":       o.HealthConfig == nil || !o.HealthConfig.DisableProfiles,
	}
}

// setupsPerPoint is how many set-up-only repetitions a run adds at each
// of several points spread over the run, besides the set-ups of its
// measured queries. One set-up takes 0.05–0.5 ms, so setup_s is the median
// of hundreds, taken at different times so no slow moment sets it.
const setupsPerPoint = 40

// setupSamples times n set-ups — plan, compile and engine.Start on a fresh
// checkpoint — over an empty topic, stopping each query at once. Set-up
// does not read input, so an empty topic times the same work.
func setupSamples(n int, cat *catalog, text string, mode logical.OutputMode,
	stream string, schema sql.Schema, options func(ckpt string) engine.Options) ([]float64, error) {
	topic, err := msgbus.NewBroker().CreateTopic(stream, topicParts)
	if err != nil {
		return nil, err
	}
	src := sources.NewCodecBusSource(stream, topic, schema)
	// Input generation has just allocated heavily; let the collector
	// settle first, as the measured iterations do.
	runtime.GC()
	var out []float64
	for i := 0; i < n; i++ {
		fsys, dir := checkpoint("setup")
		opts := options(dir)
		opts.FS = fsys
		t0 := time.Now()
		pl, err := planQuery(cat, text, mode)
		if err != nil {
			return nil, err
		}
		q, err := engine.Start(pl.query, map[string]sources.Source{stream: src}, sinks.NewMemorySink(), opts)
		if err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
		if err := q.Stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Restarts per finished checkpoint: a bulk run restarts each of its
// drains, an open-loop run has one checkpoint and restarts it more often.
// After its recovery epoch a restarted query runs updateProbes more probe
// epochs, each timed from the probe's append to its commit.
const (
	bulkRestarts = 5
	liveRestarts = 40
	updateProbes = 4
)

// restartWithProbe restarts a query on its finished checkpoint. State
// stores open lazily at the first epoch, so probe records are appended
// first (off the clock) and recovery is the restart's engine.Start plus
// the ProcessAllAvailable that runs the probe epoch: the time until the
// restarted query commits its first new result. The planner runs before
// the clock, as a restarted process would plan before starting. Then the
// probe is appended updateProbes more times, each time timing the
// ProcessAllAvailable that commits it: the update latency of a query that
// holds the recovered state. It returns the engine.Start time, the
// recovery time, the update times and what the restarted query emitted.
func restartWithProbe(topic *msgbus.Topic, probe [][]msgbus.Record, cat *catalog, text string, mode logical.OutputMode,
	stream string, src sources.Source, rec *recorder, options func() engine.Options) (start, recovery time.Duration, rows []sql.Row, updates []time.Duration, err error) {
	if rec != nil {
		rec.setPhase("restart")
	}
	if err := appendAll(topic, probe); err != nil {
		return 0, 0, nil, nil, err
	}
	// A restarted process starts on a fresh heap; settle the collector so
	// the verification just done does not bill its garbage to recovery.
	runtime.GC()
	pl, err := planQuery(cat, text, mode)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	sink := sinks.NewMemorySink()
	wsink, _ := traceSink(sink, rec)
	opts := options()
	opts.Trigger = engine.ProcessingTimeTrigger{Interval: time.Hour} // epochs run only when driven below
	t0 := time.Now()
	q, err := engine.Start(pl.query, map[string]sources.Source{stream: src}, wsink, opts)
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("restart: %w", err)
	}
	start = time.Since(t0)
	if err := q.ProcessAllAvailable(); err != nil {
		q.Stop() //nolint:errcheck // reporting the recovery error
		return 0, 0, nil, nil, fmt.Errorf("restart drain: %w", err)
	}
	recovery = time.Since(t0)
	for i := 0; i < updateProbes; i++ {
		if err := appendAll(topic, probe); err != nil {
			return 0, 0, nil, nil, err
		}
		u0 := time.Now()
		if err := q.ProcessAllAvailable(); err != nil {
			q.Stop() //nolint:errcheck // reporting the update error
			return 0, 0, nil, nil, fmt.Errorf("update probe: %w", err)
		}
		updates = append(updates, time.Since(u0))
	}
	if err := q.Stop(); err != nil {
		return 0, 0, nil, nil, fmt.Errorf("stop restarted query: %w", err)
	}
	return start, recovery, sink.Rows(), updates, nil
}

// processCPU is the CPU time (user plus system) the process has used so
// far. The kernel does not charge it for time the CPU spent on other
// processes or other virtual machines.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
