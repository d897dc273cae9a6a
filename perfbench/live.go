package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"structream/internal/engine"
	"structream/internal/metrics"
	"structream/internal/monitor"
	"structream/internal/msgbus"
	"structream/internal/serve"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/yahoo"
)

const (
	liveRate   = yahooEventsPerS // events per second, open loop
	liveSetups = 5               // set-ups of the published query per phase
	// liveSetupSamples set-ups on an empty topic run before the open loop
	// and again after it, besides the published query's own.
	liveSetupSamples = 4 * setupsPerPoint
	// The set-ups before and after the loop and the restarts after it run
	// in liveGroups groups, liveGroupPause apart. Run back to back they
	// took a few tens of milliseconds, so one slow moment of the host set
	// a whole run's figure: recovery_s spread 0.21 over four seeds.
	liveGroups     = 8
	liveGroupPause = 200 * time.Millisecond
	// liveCatchUp bounds the wait for the engine to commit the last
	// generated event; liveGrace bounds the wait, after that commit, for
	// the SSE clients to receive it. What is still missing then fails.
	liveCatchUp = 10 * time.Second
	liveGrace   = 3 * time.Second
	// liveMinSleep keeps the generator from spinning: it appends every
	// event due so far, then sleeps at least this long.
	liveMinSleep = time.Millisecond
	// A serving deployment bounds what it keeps: the sink retains the last
	// liveSinkEpochs epochs for replay (the writer's retainEpochs option),
	// the checkpoint purges WAL entries every liveWALEpochs epochs
	// (Options.RetainEpochs), and the topic keeps the last liveRetainBus of
	// records, as a broker's time retention would. Unbounded, recovery time
	// grew with the run's epoch count and the heap with its length. A
	// client or engine that falls a whole window behind fails the oracle.
	// Each trim copies the retained records, so the live heap swings with
	// the topic window; half a second keeps the swing small, and the
	// engine, a few milliseconds behind the generator, well inside it.
	liveSinkEpochs = 64
	liveWALEpochs  = 32
	liveRetainBus  = 500 * time.Millisecond
	// liveHeapEvery is how often, on average, the loop forces a full GC
	// and reads the live heap. Readings at the program's own GCs fell
	// wherever the allocation pace put them, which moved with the CPU the
	// host gave the run: their high percentiles moved by a fifth between
	// runs of the same code. The gaps are random: at a fixed 200 ms the
	// readings beat with the generator's 125 ms topic trims, which raise
	// the heap for a moment, and hit them once a second or never, by
	// chance of phase.
	liveHeapEvery = 200 * time.Millisecond
)

const liveSQL = `SELECT ad_id, event_time FROM ad_events WHERE event_type = 'view'`

// liveInput is the open loop's pre-generated input. Event i is due at
// t0 + event_time (event_time = i × 10 µs), so event_time doubles as the
// event's id and its due offset.
type liveInput struct {
	in    *encodedInput
	n     int
	views []bool // views[i]: event i passes the filter
	nView int
	cat   *catalog
}

func newLiveInput(seed int64, n int) *liveInput {
	li := &liveInput{in: newEncodedInput(topicParts), n: n, views: make([]bool, n)}
	for k := 0; k*yahooChunk < n; k++ {
		m := n - k*yahooChunk
		if m > yahooChunk {
			m = yahooChunk
		}
		w := yahoo.Generate(m, yahooCampaigns, liveRate, seed*7919+int64(k))
		for i, e := range w.Events {
			e[5] = e[5].(int64) + int64(k*yahooChunk)*microsPerEvent
			if e[4] == "view" {
				li.views[k*yahooChunk+i] = true
				li.nView++
			}
		}
		li.in.addChunk(w.Events, func(r sql.Row) int64 { return r[5].(int64) })
	}
	li.cat = &catalog{streams: map[string]sql.Schema{"ad_events": yahoo.EventSchema}}
	return li
}

// livePhase is one open-loop run of the published query.
type livePhase struct {
	setup, recovery []float64 // seconds
	updates         []float64 // ms, update probes after each restart
	latency         []float64 // ms, one per (client, delivered row)
	throughput      float64   // median epoch's input rows per second of processing time
	epochs          int       // epochs committed during the loop
	heapMB          []float64 // live heap above the baseline, read about every liveHeapEvery during the loop
	digest          uint64
	layer           map[string]float64
	spans           []span
	lateMs          []float64
	frames          int64
	bytes           int64
	deliverMs       []float64
	missingFrames   int64
}

func runLiveServe(cfg config) (outcome, error) {
	out := outcome{info: map[string]any{}}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2 // one untraced and one traced phase share the run
	}
	li := newLiveInput(cfg.seed, int(dur.Seconds()*liveRate))
	if err := li.in.offHeap(); err != nil {
		return outcome{}, err
	}
	clients := runtime.NumCPU()
	heap := newHeapSampler()
	moreSetups := func() ([]float64, error) {
		var out []float64
		for g := 0; g < liveGroups; g++ {
			if g > 0 {
				time.Sleep(liveGroupPause)
			}
			s, err := setupSamples(liveSetupSamples/liveGroups, li.cat, liveSQL, logical.Append, "ad_events", yahoo.EventSchema, liveOptions)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	}
	setups, err := moreSetups()
	if err != nil {
		return out, err
	}
	plain, err := runLivePhase(cfg, li, clients, heap, false, &out)
	if err != nil {
		return out, err
	}
	after, err := moreSetups()
	if err != nil {
		return out, err
	}
	setups = append(append(setups, plain.setup...), after...)
	lat := Summarize(plain.latency)
	upd := Summarize(plain.updates)
	heapMB := Summarize(plain.heapMB)
	if heapMB.N < 5 {
		return out, fmt.Errorf("only %d live-heap readings during the loop: too few for live_heap_mb", heapMB.N)
	}
	out.endToEnd = map[string]float64{
		"throughput_rows_per_s": plain.throughput,
		"latency_p50_ms":        upd.P50,
		"setup_s":               median(setups),
		"recovery_s":            median(plain.recovery),
		"live_heap_mb":          heapMB.P50,
	}
	late := Summarize(plain.lateMs)
	out.info["events"] = li.n
	out.info["views"] = li.nView
	out.info["rate_per_s"] = liveRate
	out.info["clients"] = clients
	out.info["phase_seconds"] = dur.Seconds()
	out.info["epochs"] = plain.epochs
	out.info["heap_mb"] = heapMB
	out.info["heap_mb_each"] = plain.heapMB
	out.info["update_ms"] = upd
	out.info["delivery_latency_ms"] = lat
	out.info["delivery_latency_p90_ms"], _ = lat.Pct(90)
	out.info["delivery_latency_p99_ms"], _ = lat.Pct(99)
	out.info["generator_late_ms"] = late
	out.info["setup_s_each"] = setups
	out.info["recovery_s_each"] = plain.recovery
	out.info["engine_options"] = describeOptions(liveOptions(""))

	if cfg.trace {
		tr, err := runLivePhase(cfg, li, clients, heap, true, &out)
		if err != nil {
			return out, err
		}
		if tr.digest != plain.digest {
			out.fail(1, "traced and untraced phases delivered different rows: %x vs %x", tr.digest, plain.digest)
		}
		m := tr.layer
		trLat := Summarize(tr.latency)
		m["bench.trace_overhead_pct"] = 100 * (trLat.P50/lat.P50 - 1)
		m["serve.frames"] = float64(tr.frames)
		m["serve.bytes_received"] = float64(tr.bytes)
		dd := Summarize(tr.deliverMs)
		m["serve.deliver_ms_p50"] = dd.P50
		m["serve.deliver_ms_p99"], _ = dd.Pct(99)
		m["serve.missing_frames"] = float64(tr.missingFrames)
		tl := Summarize(tr.lateMs)
		m["loadgen.records"] = float64(len(tr.lateMs))
		m["loadgen.late_ms_p99"], _ = tl.Pct(99)
		m["loadgen.late_ms_max"] = tl.Max
		out.perLayer = m
		out.info["traced_latency"] = trLat
		out.info["traced_deliver_ms"] = dd
		out.info["epoch_ms"] = Summarize(epochDurations(tr.spans))
		path := spanPath(cfg, "traced")
		if err := writeSpans(path, tr.spans); err != nil {
			return out, fmt.Errorf("write spans: %w", err)
		}
		out.info["spans_file"] = path
		out.info["spans"] = len(tr.spans)
	}
	return out, nil
}

// liveTrigger fixes the epoch cadence. Under the default trigger the
// epoch count followed the CPU left over by the serving path, and with it
// the number of frames, the WAL length and so recovery time: run-level
// spreads of 0.4–0.7 on latency and recovery_s over five seeds.
const liveTrigger = 5 * time.Millisecond

// liveEpochCap caps an epoch at two trigger intervals of input. A stall
// (a GC, or the host taking the CPU away) otherwise ended in one epoch
// holding everything that arrived during it, so the epoch sizes, and with
// them the per-epoch processing rate and the rows the sink retains,
// followed how much CPU the host gave the run. After a stall the engine
// now catches up in epochs of at most this size.
const liveEpochCap = 2 * liveRate * int64(liveTrigger/time.Millisecond) / 1000

func liveOptions(ckpt string) engine.Options {
	o := baseOptions("live-serve", ckpt)
	o.Trigger = engine.ProcessingTimeTrigger{Interval: liveTrigger}
	o.MaxRecordsPerTrigger = liveEpochCap
	o.RetainEpochs = liveWALEpochs
	return o
}

// runLivePhase sets the query up liveSetups times (keeping the last),
// publishes it on a hub behind the monitor's HTTP server, connects the
// SSE clients, runs the open-loop generator, drains, checks every client
// received every row exactly once in epoch order, and restarts the query
// on the finished checkpoint.
func runLivePhase(cfg config, li *liveInput, nClients int, heap *heapSampler, traced bool, out *outcome) (*livePhase, error) {
	ph := &livePhase{}
	topic, err := msgbus.NewBroker().CreateTopic("ad_events", topicParts)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if traced {
		rec = newRecorder(topicParts)
	}
	src := sources.NewCodecBusSource("ad_events", topic, yahoo.EventSchema)
	wsrc := traceSource(src, rec)
	mfs, ckpt := checkpoint("live")
	wfs := traceFS(mfs, rec)

	// The benchmark's own buffers are allocated before the heap baseline,
	// so live_heap_mb counts the program, not the measurement.
	cls := make([]*sseClient, nClients)
	for i := range cls {
		cls[i] = &sseClient{n: li.n, seen: make([]uint8, li.n), latency: make([]float64, 0, li.nView), rec: rec}
	}
	late := make([]float64, 0, li.n)
	runtime.GC()
	base, _ := heap.read()

	// Set-up, several times: only the last query stays up. The earlier
	// ones each start on a fresh checkpoint of their own.
	var sq *engine.StreamingQuery
	var sink *sinks.MemorySink
	var tsink *tracedSink
	var pl planned
	for i := 0; i < liveSetups; i++ {
		fsys, dir := wfs, ckpt
		if i < liveSetups-1 {
			var m *memFS
			m, dir = checkpoint("live-setup")
			fsys = traceFS(m, rec)
		}
		s := sinks.NewMemorySink()
		s.SetRetention(liveSinkEpochs)
		ws, ts := traceSink(s, rec)
		if traced {
			if err := sameInterfaces(src, wsrc, s, ws, mfs, wfs); err != nil {
				return nil, err
			}
		}
		opts := liveOptions(dir)
		opts.FS = fsys
		t0 := time.Now()
		p, err := planQuery(li.cat, liveSQL, logical.Append)
		if err != nil {
			return nil, err
		}
		q, err := engine.Start(p.query, map[string]sources.Source{"ad_events": wsrc}, ws, opts)
		if err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
		ph.setup = append(ph.setup, time.Since(t0).Seconds())
		if i < liveSetups-1 {
			if err := q.Stop(); err != nil {
				return nil, err
			}
			continue
		}
		sq, sink, tsink, pl = q, s, ts, p
	}
	startDur := time.Duration(ph.setup[len(ph.setup)-1]*float64(time.Second)) - pl.plan - pl.compile

	hub := serve.NewHub(sq.Name(), sink, serve.HubOptions{})
	hub.Attach(sq)
	mon := monitor.New()
	mon.Register(sq)
	mon.RegisterHub(hub)
	addr, err := mon.Serve("127.0.0.1:0")
	if err != nil {
		sq.Stop() //nolint:errcheck // reporting the listen error
		hub.Close()
		return nil, err
	}
	var backlog func() int64
	if rec != nil {
		backlog = func() int64 { return sources.Offsets(topic.LatestOffsets()).Total() - rec.readTotal() }
	}
	// Clients connect before the first event is due and read until the
	// server closes their stream.
	t0 := time.Now().Add(100 * time.Millisecond)
	clock := newEpochClock(heap, mfs, rec, backlog)
	removeListener := sq.AddEpochListener(clock.commit)
	// Each epoch's processing rate, from the engine's own epoch time.
	var rateMu sync.Mutex
	var rates []float64
	sq.EventLog().AddListener(func(p metrics.QueryProgress) {
		if p.NumInputRows > 0 && p.ProcessingMicros > 0 {
			rateMu.Lock()
			rates = append(rates, float64(p.NumInputRows)/(float64(p.ProcessingMicros)/1e6))
			rateMu.Unlock()
		}
	})
	url := fmt.Sprintf("http://%s/queries/%s/subscribe?from=start", addr, sq.Name())
	var wg sync.WaitGroup
	ready := make(chan error, nClients) // one send per client
	for i := range cls {
		cls[i].t0 = t0
		wg.Add(1)
		go func(c *sseClient) {
			defer wg.Done()
			c.run(url, ready)
		}(cls[i])
	}
	var connErr error
	for range cls {
		if err := <-ready; err != nil && connErr == nil {
			connErr = err
		}
	}
	if connErr != nil {
		mon.Close() //nolint:errcheck // reporting the connect error
		hub.Close()
		sq.Stop() //nolint:errcheck // reporting the connect error
		wg.Wait()
		return nil, connErr
	}
	if rec != nil {
		rec.resetReads()
		rec.beginDrain(0)
	}
	allocs0 := allocsNow(heap)
	pause0 := gcPauseTotal()

	heapStop := make(chan struct{})
	heapDone := make(chan []float64)
	go func() { heapDone <- sampleHeap(clock, base, liveHeapEvery, cfg.seed, heapStop) }()
	ph.lateMs = generate(topic, li, t0, late)

	// Wait for the engine to commit the last event, then give the clients
	// a bounded grace period to receive it.
	total := int64(li.n)
	lastEpoch := int64(-1)
	catchUp := time.Now().Add(liveCatchUp)
	for {
		if p, ok := sq.LastProgress(); ok && p.SourceOffsets["ad_events"] >= total {
			lastEpoch = p.Epoch
			break
		}
		if time.Now().After(catchUp) || sq.Err() != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	drainEnd := time.Now()
	close(heapStop)
	ph.heapMB = <-heapDone
	rateMu.Lock()
	ph.throughput = median(rates)
	rateMu.Unlock()
	if lastEpoch < 0 {
		out.fail(1, "engine did not commit the last event within %v of the generator finishing (err=%v)", liveCatchUp, sq.Err())
	}
	grace := time.Now().Add(liveGrace)
	for time.Now().Before(grace) {
		done := true
		for _, c := range cls {
			if c.maxEpoch() < lastEpoch {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	allocs := allocsNow(heap) - allocs0
	pause := gcPauseTotal() - pause0
	removeListener()
	regSnap := sq.Metrics().Snapshot()

	mon.Close() //nolint:errcheck // drains the SSE streams; clients end on EOF
	hub.Close()
	stopErr := sq.Stop()
	wg.Wait()
	if stopErr != nil {
		return nil, fmt.Errorf("stop: %w", stopErr)
	}

	order, backlogMax := clock.snapshot()
	ph.epochs = len(order)

	// Oracle: every produced row exactly once per client, in epoch order.
	digests := make([]uint64, len(cls))
	for ci, c := range cls {
		chk := c.verify(li)
		chk.into(out, fmt.Sprintf("sse client %d", ci))
		digests[ci] = chk.digest
		ph.latency = append(ph.latency, c.latency...)
		ph.frames += int64(len(c.frames))
		ph.bytes += c.bytes
		received := map[int64]bool{}
		for _, f := range c.frames {
			received[f.epoch] = true
			if tsink != nil {
				if ret, ok := tsink.returnedAt(f.epoch); ok {
					ph.deliverMs = append(ph.deliverMs, nsToMs(f.recvAbs-ret))
				}
			}
		}
		for _, e := range order {
			if !received[e] {
				ph.missingFrames++
			}
		}
	}
	ph.digest = digests[0]

	// Restarts on the finished checkpoint, each followed by a probe epoch
	// over re-appended events: the restarted query must emit exactly the
	// probe's views — no replayed history, nothing lost.
	probe := li.in.head(probePerPart)
	probeRows, err := decodeAll(probe)
	if err != nil {
		return nil, err
	}
	var restartDur []time.Duration
	for r := 0; r < liveRestarts; r++ {
		if r > 0 && r%(liveRestarts/liveGroups) == 0 {
			time.Sleep(liveGroupPause)
		}
		st, rcv, rows, ups, err := restartWithProbe(topic, probe, li.cat, liveSQL, logical.Append, "ad_events", wsrc, rec,
			func() engine.Options {
				o := liveOptions(ckpt)
				o.FS = wfs
				return o
			})
		if err != nil {
			return nil, err
		}
		restartDur = append(restartDur, st)
		ph.recovery = append(ph.recovery, rcv.Seconds())
		ph.updates = append(ph.updates, durationsMs(ups)...)
		chk := checkLiveProbe(rows, probeRows, 1+updateProbes)
		chk.into(out, fmt.Sprintf("restart %d", r))
	}

	if rec != nil {
		ph.spans = rec.take()
		drain := interval{t0.Sub(rec.t0).Nanoseconds(), drainEnd.Sub(rec.t0).Nanoseconds()}
		ph.layer = layerMetrics(layerInput{
			spans: ph.spans, drain: drain, inputRows: total,
			allocBytes: allocs, gcPause: pause, reg: regSnap, backlogMax: backlogMax,
			plan: pl.plan, compile: pl.compile, start: startDur, restart: restartDur,
		})
	}
	return ph, nil
}

// checkLiveProbe: the restarted query's sink must hold exactly the probe
// records' views, once per append, as (ad_id, event_time) rows.
func checkLiveProbe(got []sql.Row, probe []sql.Row, appends int) check {
	want := map[string]int{}
	for _, e := range probe {
		if e[4] == "view" {
			want[fmt.Sprintf("%v/%v", e[2], e[5])] += appends
		}
	}
	c := check{attempted: int64(len(want))}
	have := map[string]int{}
	for _, r := range got {
		have[fmt.Sprintf("%v/%v", r[0], r[1])]++
	}
	for k, n := range want {
		if have[k] != n {
			c.bad(1, "probe row %s delivered %d times, want %d", k, have[k], n)
		}
	}
	for k, n := range have {
		if _, ok := want[k]; !ok {
			c.bad(int64(n), "restarted query emitted %s, which is not probe input", k)
		}
	}
	return c
}

// sampleHeap forces a full GC after gaps drawn uniformly from half to
// one and a half times every, until stop is closed, and returns the
// program's live heap after each, in MB above base.
func sampleHeap(c *epochClock, base uint64, every time.Duration, seed int64, stop <-chan struct{}) []float64 {
	rng := rand.New(rand.NewSource(seed))
	t := time.NewTimer(every)
	defer t.Stop()
	var out []float64
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
			t.Reset(every/2 + time.Duration(rng.Int63n(int64(every))))
			runtime.GC()
			live := c.programHeap()
			out = append(out, (float64(live)-float64(base))/(1<<20))
		}
	}
}

// generate is the open-loop load generator: one goroutine (the caller's)
// appends every event whose due time has passed, then sleeps until the
// next is due, but at least liveMinSleep. It never waits on the engine. It appends each event's
// lateness (append time minus due time, in ms) to late.
func generate(topic *msgbus.Topic, li *liveInput, t0 time.Time, late []float64) []float64 {
	parts := len(li.in.parts)
	cursor := make([]int, parts)
	interval := time.Duration(microsPerEvent) * time.Microsecond
	keep := int(liveRetainBus/interval) / parts // records kept per partition
	time.Sleep(time.Until(t0))
	next := 0
	for next < li.n {
		now := time.Now()
		upto := int(now.Sub(t0)/interval) + 1
		if upto > li.n {
			upto = li.n
		}
		if upto > next {
			for p := 0; p < parts; p++ {
				// Event i lives in partition i mod parts at index i/parts.
				end := (upto - p + parts - 1) / parts
				if end > cursor[p] {
					topic.Append(p, li.in.records(p, cursor[p], end)...) //nolint:errcheck // partition index is in range
					// Trim every quarter window, so the retained records
					// swing between one and 1¼ windows.
					if step := keep / 4; end/step > cursor[p]/step && end > keep {
						topic.TrimBefore(p, int64(end-keep)) //nolint:errcheck // partition index is in range
					}
					cursor[p] = end
				}
			}
			appended := time.Now()
			for i := next; i < upto; i++ {
				late = append(late, ms(appended.Sub(t0.Add(time.Duration(i)*interval))))
			}
			next = upto
		}
		if next < li.n {
			wait := time.Until(t0.Add(time.Duration(next) * interval))
			if wait < liveMinSleep {
				wait = liveMinSleep
			}
			time.Sleep(wait)
		}
	}
	return late
}

// sseClient is one subscriber on the monitor's SSE endpoint.
type sseClient struct {
	t0   time.Time
	n    int
	rec  *recorder
	seen []uint8 // deliveries per event index

	mu      sync.Mutex
	frames  []clientFrame
	latency []float64
	bytes   int64
	last    int64 // newest epoch received
	order   int64 // frames that arrived out of epoch order
	foreign int64 // rows that are not generated views
	err     error
}

type clientFrame struct {
	epoch   int64
	rows    int
	recv    time.Duration // since t0
	recvAbs int64         // ns since the recorder's t0 (traced only)
}

type wireFrame struct {
	Kind  string    `json:"kind"`
	Epoch int64     `json:"epoch"`
	Rows  [][]int64 `json:"rows"`
}

func (c *sseClient) maxEpoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

func (c *sseClient) run(url string, ready chan<- error) {
	c.last = -1
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		ready <- err
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		ready <- err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ready <- fmt.Errorf("subscribe: HTTP %d", resp.StatusCode)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	announced := false
	for sc.Scan() {
		line := sc.Bytes()
		recv := time.Now()
		c.mu.Lock()
		c.bytes += int64(len(line)) + 1
		c.mu.Unlock()
		data, ok := strings.CutPrefix(string(line), "data: ")
		if !ok {
			continue
		}
		var f wireFrame
		if err := json.Unmarshal([]byte(data), &f); err != nil {
			c.mu.Lock()
			c.err = fmt.Errorf("decode frame: %w", err)
			c.mu.Unlock()
			continue
		}
		switch f.Kind {
		case serve.FrameHello:
			if !announced {
				announced = true
				ready <- nil
			}
		case serve.FrameEpoch, serve.FrameSnapshot:
			c.apply(f, recv)
		}
	}
	if !announced {
		ready <- fmt.Errorf("subscribe: stream ended before hello (%v)", sc.Err())
	}
}

func (c *sseClient) apply(f wireFrame, recv time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.Epoch <= c.last && f.Kind == serve.FrameEpoch {
		c.order += int64(len(f.Rows))
	}
	if f.Epoch > c.last {
		c.last = f.Epoch
	}
	cf := clientFrame{epoch: f.Epoch, rows: len(f.Rows), recv: recv.Sub(c.t0)}
	if c.rec != nil {
		cf.recvAbs = recv.Sub(c.rec.t0).Nanoseconds()
	}
	c.frames = append(c.frames, cf)
	for _, r := range f.Rows {
		if len(r) != 2 {
			c.foreign++
			continue
		}
		ts := r[1]
		i := ts / microsPerEvent
		if ts%microsPerEvent != 0 || i < 0 || i >= int64(c.n) {
			c.foreign++
			continue
		}
		if c.seen[i] < 255 {
			c.seen[i]++
		}
		due := c.t0.Add(time.Duration(ts) * time.Microsecond)
		c.latency = append(c.latency, ms(recv.Sub(due)))
	}
}

// verify checks the client's deliveries against the generated views.
func (c *sseClient) verify(li *liveInput) check {
	c.mu.Lock()
	defer c.mu.Unlock()
	chk := check{attempted: int64(li.nView)}
	var missing, dup, notView int64
	h := fnv.New64a()
	var buf [8]byte
	for i, n := range c.seen {
		switch {
		case li.views[i] && n == 0:
			missing++
		case li.views[i] && n > 1:
			dup += int64(n - 1)
		case !li.views[i] && n > 0:
			notView += int64(n)
		}
		if n > 0 {
			for b := 0; b < 8; b++ {
				buf[b] = byte(i >> (8 * b))
			}
			h.Write(buf[:])
		}
	}
	chk.bad(missing, "%d views never delivered", missing)
	chk.bad(dup, "%d duplicate deliveries", dup)
	chk.bad(notView, "%d rows that the filter should have dropped", notView)
	chk.bad(c.foreign, "%d rows that are not generated events", c.foreign)
	chk.bad(c.order, "%d rows in frames out of epoch order", c.order)
	if c.err != nil {
		chk.bad(1, "%v", c.err)
	}
	chk.digest = h.Sum64()
	sort.Slice(c.frames, func(a, b int) bool { return c.frames[a].recv < c.frames[b].recv })
	return chk
}
