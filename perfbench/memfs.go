package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"structream/internal/fsx"
)

// memFS is an in-memory fsx.FS with the semantics the checkpoint code
// relies on: a file's parent directory must exist, Rename replaces its
// target atomically, Remove refuses a non-empty directory, ReadDir lists
// sorted names, and missing paths fail with fs.ErrNotExist. It also
// implements fsx.RangeReader, as the real filesystem does.
//
// The benchmark checkpoints to it because on a 2-vCPU virtual machine
// with a shared virtual disk every checkpoint file operation was a source
// of noise larger than any change worth measuring: mkdir and write+rename
// moved between about 20 µs and 300 µs from one minute to the next even
// without fsync, and on fsx.NoSync() agg-spill's set-up swung 0.24–2.6 ms
// and its recovery 7–12 ms between runs. The engine still makes every
// call it would make on disk, through the same code, and the traced run
// counts them, but their time is that of a map copy: the benchmark does
// not measure file I/O.
type memFS struct {
	size atomic.Int64 // bytes held, so heap figures can leave them out

	mu       sync.RWMutex
	files    map[string][]byte
	children map[string]map[string]bool // dir → child name → is a directory
}

func newMemFS() *memFS {
	return &memFS{files: map[string][]byte{}, children: map[string]map[string]bool{".": {}, "/": {}}}
}

var _ fsx.RangeReader = (*memFS)(nil)

func notExist(op, path string) error { return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist} }

func (m *memFS) isDirLocked(p string) bool {
	_, ok := m.children[p]
	return ok
}

// held is how many bytes of file data the filesystem holds.
func (m *memFS) held() uint64 { return uint64(m.size.Load()) }

// WriteFile implements fsx.FS.
func (m *memFS) WriteFile(path string, data []byte, _ fs.FileMode) error {
	p := filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, name := filepath.Split(p)
	dir = filepath.Clean(dir)
	if !m.isDirLocked(dir) {
		return notExist("open", path)
	}
	if m.isDirLocked(p) {
		return &fs.PathError{Op: "open", Path: path, Err: syscall.EISDIR}
	}
	m.size.Add(int64(len(data) - len(m.files[p])))
	m.files[p] = append([]byte(nil), data...)
	m.children[dir][name] = false
	return nil
}

// Rename implements fsx.FS for files and directories.
func (m *memFS) Rename(oldpath, newpath string) error {
	o, n := filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	ndir, nname := filepath.Split(n)
	ndir = filepath.Clean(ndir)
	if !m.isDirLocked(ndir) {
		return &fs.PathError{Op: "rename", Path: newpath, Err: fs.ErrNotExist}
	}
	odir, oname := filepath.Split(o)
	odir = filepath.Clean(odir)
	if data, ok := m.files[o]; ok {
		if m.isDirLocked(n) {
			return &fs.PathError{Op: "rename", Path: newpath, Err: syscall.EISDIR}
		}
		delete(m.files, o)
		delete(m.children[odir], oname)
		m.size.Add(-int64(len(m.files[n])))
		m.files[n] = data
		m.children[ndir][nname] = false
		return nil
	}
	if !m.isDirLocked(o) {
		return notExist("rename", oldpath)
	}
	if _, ok := m.files[n]; ok {
		return &fs.PathError{Op: "rename", Path: newpath, Err: syscall.ENOTDIR}
	}
	if len(m.children[n]) > 0 {
		return &fs.PathError{Op: "rename", Path: newpath, Err: syscall.ENOTEMPTY}
	}
	prefix := o + string(filepath.Separator)
	for p, data := range m.files {
		if strings.HasPrefix(p, prefix) {
			delete(m.files, p)
			m.files[n+p[len(o):]] = data
		}
	}
	for p, kids := range m.children {
		if p == o || strings.HasPrefix(p, prefix) {
			delete(m.children, p)
			m.children[n+p[len(o):]] = kids
		}
	}
	delete(m.children[odir], oname)
	m.children[ndir][nname] = true
	return nil
}

// ReadFile implements fsx.FS.
func (m *memFS) ReadFile(path string) ([]byte, error) {
	p := filepath.Clean(path)
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.files[p]
	if !ok {
		if m.isDirLocked(p) {
			return nil, &fs.PathError{Op: "read", Path: path, Err: syscall.EISDIR}
		}
		return nil, notExist("open", path)
	}
	return append([]byte(nil), data...), nil
}

// ReadFileRange implements fsx.RangeReader.
func (m *memFS) ReadFileRange(path string, off int64, n int) ([]byte, error) {
	p := filepath.Clean(path)
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.files[p]
	if !ok {
		return nil, notExist("open", path)
	}
	if off < 0 || n < 0 || off+int64(n) > int64(len(data)) {
		return nil, fmt.Errorf("read %s: range [%d,+%d) outside %d bytes", path, off, n, len(data))
	}
	return append([]byte(nil), data[off:off+int64(n)]...), nil
}

// ReadDir implements fsx.FS.
func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	d := filepath.Clean(dir)
	m.mu.RLock()
	defer m.mu.RUnlock()
	kids, ok := m.children[d]
	if !ok {
		return nil, notExist("open", dir)
	}
	out := make([]fs.DirEntry, 0, len(kids))
	for name, isDir := range kids {
		out = append(out, memEntry{name: name, isDir: isDir, size: int64(len(m.files[filepath.Join(d, name)]))})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name() < out[b].Name() })
	return out, nil
}

// Remove implements fsx.FS.
func (m *memFS) Remove(path string) error {
	p := filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, name := filepath.Split(p)
	dir = filepath.Clean(dir)
	if data, ok := m.files[p]; ok {
		m.size.Add(-int64(len(data)))
		delete(m.files, p)
		delete(m.children[dir], name)
		return nil
	}
	kids, ok := m.children[p]
	if !ok {
		return notExist("remove", path)
	}
	if len(kids) > 0 {
		return &fs.PathError{Op: "remove", Path: path, Err: syscall.ENOTEMPTY}
	}
	delete(m.children, p)
	delete(m.children[dir], name)
	return nil
}

// MkdirAll implements fsx.FS.
func (m *memFS) MkdirAll(path string, _ fs.FileMode) error {
	p := filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	var missing []string // p and its missing ancestors, deepest first
	for q := p; !m.isDirLocked(q); q = filepath.Dir(q) {
		if _, ok := m.files[q]; ok {
			return &fs.PathError{Op: "mkdir", Path: q, Err: syscall.ENOTDIR}
		}
		missing = append(missing, q)
	}
	for i := len(missing) - 1; i >= 0; i-- {
		q := missing[i]
		m.children[q] = map[string]bool{}
		m.children[filepath.Dir(q)][filepath.Base(q)] = true
	}
	return nil
}

// Stat implements fsx.FS.
func (m *memFS) Stat(path string) (fs.FileInfo, error) {
	p := filepath.Clean(path)
	m.mu.RLock()
	defer m.mu.RUnlock()
	if data, ok := m.files[p]; ok {
		return memEntry{name: filepath.Base(p), size: int64(len(data))}, nil
	}
	if m.isDirLocked(p) {
		return memEntry{name: filepath.Base(p), isDir: true}, nil
	}
	return nil, notExist("stat", path)
}

// memEntry is both the fs.DirEntry and the fs.FileInfo of a memFS path.
type memEntry struct {
	name  string
	isDir bool
	size  int64
}

func (e memEntry) Name() string { return e.name }
func (e memEntry) IsDir() bool  { return e.isDir }
func (e memEntry) Type() fs.FileMode {
	if e.isDir {
		return fs.ModeDir
	}
	return 0
}
func (e memEntry) Info() (fs.FileInfo, error) { return e, nil }
func (e memEntry) Size() int64                { return e.size }
func (e memEntry) Mode() fs.FileMode {
	if e.isDir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (e memEntry) ModTime() time.Time { return time.Time{} }
func (e memEntry) Sys() any           { return nil }
