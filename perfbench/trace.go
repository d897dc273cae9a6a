package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"structream/internal/fsx"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// span is one timed call across a layer boundary, recorded from outside
// the program by the wrappers below. Parent names the span that caused
// it: "epoch/<n>" while a drain runs, else the benchmark phase.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Epoch  int64  `json:"epoch"`
	Parent string `json:"parent"`
	Rows   int64  `json:"rows,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// recorder keeps spans in memory until the run ends. The open epoch is
// stamped by the query's epoch listener: calls made after epoch n-1
// committed and before epoch n commits belong to epoch n.
type recorder struct {
	t0    time.Time
	open  atomic.Int64 // open epoch during a drain, -1 outside one
	phase atomic.Value // string: benchmark phase outside a drain

	mu         sync.Mutex
	spans      []span
	lastCommit int64
	maxRead    []atomic.Int64 // per source partition: highest end offset read
}

func newRecorder(partitions int) *recorder {
	r := &recorder{t0: time.Now(), maxRead: make([]atomic.Int64, partitions)}
	r.open.Store(-1)
	r.phase.Store("setup")
	return r
}

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// setPhase names the phase for spans outside a drain ("setup",
// "restart", ...) and closes any open epoch.
func (r *recorder) setPhase(name string) {
	r.phase.Store(name)
	r.open.Store(-1)
}

// beginDrain opens epoch first; the first epoch span starts here.
func (r *recorder) beginDrain(first int64) {
	r.mu.Lock()
	r.lastCommit = r.now()
	r.mu.Unlock()
	r.phase.Store("drain")
	r.open.Store(first)
}

// committed closes the open epoch's span at the commit of epoch e.
func (r *recorder) committed(e int64) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: "epoch", Layer: "engine", Start: r.lastCommit, End: end, Epoch: e, Parent: "drain"})
	r.lastCommit = end
	r.mu.Unlock()
	r.open.Store(e + 1)
}

func (r *recorder) add(name, layer string, start int64, rows, bytes int64) {
	end := r.now()
	e := r.open.Load()
	parent := fmt.Sprintf("epoch/%d", e)
	if e < 0 {
		parent, _ = r.phase.Load().(string)
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Start: start, End: end, Epoch: e, Parent: parent, Rows: rows, Bytes: bytes})
	r.mu.Unlock()
}

// take returns the spans recorded since the last take and resets the
// buffer, so each iteration is analysed on its own.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

func (r *recorder) noteRead(p int, to int64) {
	if p < 0 || p >= len(r.maxRead) {
		return
	}
	m := &r.maxRead[p]
	for {
		cur := m.Load()
		if to <= cur || m.CompareAndSwap(cur, to) {
			return
		}
	}
}

// readTotal is how many records the source has served so far (the sum of
// the highest end offsets read per partition).
func (r *recorder) readTotal() int64 {
	var n int64
	for i := range r.maxRead {
		n += r.maxRead[i].Load()
	}
	return n
}

func (r *recorder) resetReads() {
	for i := range r.maxRead {
		r.maxRead[i].Store(0)
	}
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------- source

// tracedSource records a span around every read. The exported wrapper
// types below add exactly the optional read paths the wrapped source has:
// a wrapper that dropped ReadVec or ReadPartition would silently send the
// engine down the row path and measure a different program.
type tracedSource struct {
	inner sources.Source
	rec   *recorder
}

func (s *tracedSource) Name() string                       { return s.inner.Name() }
func (s *tracedSource) Schema() sql.Schema                 { return s.inner.Schema() }
func (s *tracedSource) Partitions() int                    { return s.inner.Partitions() }
func (s *tracedSource) Latest() (sources.Offsets, error)   { return s.inner.Latest() }
func (s *tracedSource) Earliest() (sources.Offsets, error) { return s.inner.Earliest() }

func (s *tracedSource) Read(p int, from, to int64) ([]sql.Row, error) {
	st := s.rec.now()
	rows, err := s.inner.Read(p, from, to)
	s.rec.add("source.Read", "sources", st, int64(len(rows)), 0)
	s.rec.noteRead(p, to)
	return rows, err
}

func (s *tracedSource) readVec(p int, from, to int64) (*vec.Batch, bool, error) {
	st := s.rec.now()
	b, ok, err := s.inner.(sources.VectorReader).ReadVec(p, from, to)
	s.rec.add("source.ReadVec", "sources", st, batchRows(b, ok), 0)
	if ok {
		s.rec.noteRead(p, to)
	}
	return b, ok, err
}

func (s *tracedSource) readPartition(p int, from, to int64, n, of int) (*vec.Batch, bool, error) {
	st := s.rec.now()
	b, ok, err := s.inner.(sources.PartitionReader).ReadPartition(p, from, to, n, of)
	s.rec.add("source.ReadPartition", "sources", st, batchRows(b, ok), 0)
	if ok {
		s.rec.noteRead(p, to)
	}
	return b, ok, err
}

func batchRows(b *vec.Batch, ok bool) int64 {
	if !ok || b == nil {
		return 0
	}
	return int64(b.NumLive())
}

type vecSource struct{ *tracedSource }

func (s vecSource) ReadVec(p int, from, to int64) (*vec.Batch, bool, error) {
	return s.readVec(p, from, to)
}

type partSource struct{ *tracedSource }

func (s partSource) ReadPartition(p int, from, to int64, n, of int) (*vec.Batch, bool, error) {
	return s.readPartition(p, from, to, n, of)
}

type vecPartSource struct{ *tracedSource }

func (s vecPartSource) ReadVec(p int, from, to int64) (*vec.Batch, bool, error) {
	return s.readVec(p, from, to)
}

func (s vecPartSource) ReadPartition(p int, from, to int64, n, of int) (*vec.Batch, bool, error) {
	return s.readPartition(p, from, to, n, of)
}

// traceSource wraps src, or returns it unchanged when rec is nil.
func traceSource(src sources.Source, rec *recorder) sources.Source {
	if rec == nil {
		return src
	}
	t := &tracedSource{inner: src, rec: rec}
	_, isVec := src.(sources.VectorReader)
	_, isPart := src.(sources.PartitionReader)
	switch {
	case isVec && isPart:
		return vecPartSource{t}
	case isVec:
		return vecSource{t}
	case isPart:
		return partSource{t}
	default:
		return t
	}
}

// ---------------------------------------------------------------- sink

// tracedSink records a span around every delivery and the time each
// epoch's delivery returned (the start of serve-layer delivery latency).
type tracedSink struct {
	inner sinks.Sink
	rec   *recorder

	mu       sync.Mutex
	returned map[int64]int64 // epoch → ns since run start when AddBatch returned
}

func (s *tracedSink) AddBatch(b sinks.Batch) error {
	st := s.rec.now()
	err := s.inner.AddBatch(b)
	s.delivered("sink.AddBatch", st, b, int64(len(b.Rows)))
	return err
}

func (s *tracedSink) addColumnBatch(b sinks.Batch) error {
	st := s.rec.now()
	err := s.inner.(sinks.ColumnSink).AddColumnBatch(b)
	var rows int64
	for _, v := range b.Vecs {
		rows += int64(v.NumLive())
	}
	s.delivered("sink.AddColumnBatch", st, b, rows)
	return err
}

func (s *tracedSink) delivered(name string, st int64, b sinks.Batch, rows int64) {
	s.rec.add(name, "sinks", st, rows, 0)
	end := s.rec.now()
	s.mu.Lock()
	s.returned[b.Epoch] = end
	s.mu.Unlock()
}

// returnedAt reports when the delivery of epoch e returned.
func (s *tracedSink) returnedAt(e int64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.returned[e]
	return t, ok
}

type columnSink struct{ *tracedSink }

func (s columnSink) AddColumnBatch(b sinks.Batch) error { return s.addColumnBatch(b) }

// traceSink wraps sink (keeping ColumnSink exactly when the sink has it),
// or returns it unchanged when rec is nil. The second result exposes the
// delivery stamps; it is nil when untraced.
func traceSink(sink sinks.Sink, rec *recorder) (sinks.Sink, *tracedSink) {
	if rec == nil {
		return sink, nil
	}
	t := &tracedSink{inner: sink, rec: rec, returned: map[int64]int64{}}
	if _, ok := sink.(sinks.ColumnSink); ok {
		return columnSink{t}, t
	}
	return t, t
}

// ---------------------------------------------------------------- fs

// tracedFS records every checkpoint file operation, classified by the
// layer that owns the path: wal (offsets, commits, segments) or state.
type tracedFS struct {
	inner fsx.FS
	rec   *recorder
}

func fsLayer(path string) string {
	p := filepath.ToSlash(path)
	switch {
	case strings.Contains(p, "/state/"):
		return "state"
	case strings.Contains(p, "/offsets/"), strings.Contains(p, "/commits/"), strings.Contains(p, "/segments/"):
		return "wal"
	default:
		return "fs"
	}
}

func (f *tracedFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	st := f.rec.now()
	err := f.inner.WriteFile(path, data, perm)
	f.rec.add("fs.WriteFile", fsLayer(path), st, 0, int64(len(data)))
	return err
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	st := f.rec.now()
	err := f.inner.Rename(oldpath, newpath)
	f.rec.add("fs.Rename", fsLayer(newpath), st, 0, 0)
	return err
}

func (f *tracedFS) ReadFile(path string) ([]byte, error) {
	st := f.rec.now()
	data, err := f.inner.ReadFile(path)
	f.rec.add("fs.ReadFile", fsLayer(path), st, 0, int64(len(data)))
	return data, err
}

func (f *tracedFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	st := f.rec.now()
	ents, err := f.inner.ReadDir(dir)
	f.rec.add("fs.ReadDir", fsLayer(dir+"/"), st, 0, 0)
	return ents, err
}

func (f *tracedFS) Remove(path string) error {
	st := f.rec.now()
	err := f.inner.Remove(path)
	f.rec.add("fs.Remove", fsLayer(path), st, 0, 0)
	return err
}

func (f *tracedFS) MkdirAll(path string, perm fs.FileMode) error {
	st := f.rec.now()
	err := f.inner.MkdirAll(path, perm)
	f.rec.add("fs.MkdirAll", fsLayer(path+"/"), st, 0, 0)
	return err
}

func (f *tracedFS) Stat(path string) (fs.FileInfo, error) {
	st := f.rec.now()
	info, err := f.inner.Stat(path)
	f.rec.add("fs.Stat", fsLayer(path), st, 0, 0)
	return info, err
}

func (f *tracedFS) readFileRange(path string, off int64, n int) ([]byte, error) {
	st := f.rec.now()
	data, err := f.inner.(fsx.RangeReader).ReadFileRange(path, off, n)
	f.rec.add("fs.ReadFileRange", fsLayer(path), st, 0, int64(len(data)))
	return data, err
}

type rangeFS struct{ *tracedFS }

func (f rangeFS) ReadFileRange(path string, off int64, n int) ([]byte, error) {
	return f.readFileRange(path, off, n)
}

// traceFS wraps fsys (keeping RangeReader exactly when fsys has it, so
// the LSM backend keeps block-granular reads), or returns it unchanged
// when rec is nil.
func traceFS(fsys fsx.FS, rec *recorder) fsx.FS {
	if rec == nil {
		return fsys
	}
	t := &tracedFS{inner: fsys, rec: rec}
	if _, ok := fsys.(fsx.RangeReader); ok {
		return rangeFS{t}
	}
	return t
}

// sameInterfaces reports an error when a wrapper does not expose exactly
// the optional interfaces of what it wraps.
func sameInterfaces(src, wsrc sources.Source, sink, wsink sinks.Sink, fsys, wfs fsx.FS) error {
	check := func(what string, a, b bool) error {
		if a != b {
			return fmt.Errorf("wrapper changes %s: wrapped=%v, wrapper=%v", what, a, b)
		}
		return nil
	}
	_, a := src.(sources.VectorReader)
	_, b := wsrc.(sources.VectorReader)
	if err := check("sources.VectorReader", a, b); err != nil {
		return err
	}
	_, a = src.(sources.PartitionReader)
	_, b = wsrc.(sources.PartitionReader)
	if err := check("sources.PartitionReader", a, b); err != nil {
		return err
	}
	_, a = sink.(sinks.ColumnSink)
	_, b = wsink.(sinks.ColumnSink)
	if err := check("sinks.ColumnSink", a, b); err != nil {
		return err
	}
	_, a = fsys.(fsx.RangeReader)
	_, b = wfs.(fsx.RangeReader)
	return check("fsx.RangeReader", a, b)
}
