package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"sync"
)

// ErrCrashed is returned by operations on a file handle that was open
// when Mem.Crash was called — the process holding it is "dead" and must
// reopen the file to see what survived.
var ErrCrashed = errors.New("faultfs: file handle lost in crash")

// Mem is an in-memory FS with a volatile/durable split per file and
// deterministic fault injection. It is the test double for OS: writes
// land in a volatile tail, Sync advances the durable watermark, and
// Crash throws away everything above it (optionally keeping a torn
// prefix of the unsynced tail). All methods are safe for concurrent use.
type Mem struct {
	mu    sync.Mutex
	files map[string]*memData
	// gen counts crashes; handles opened in an older generation are dead.
	gen uint64

	failWrites  int
	writeErr    error
	shortWrites int
	failSyncs   int
	syncErr     error
}

// memData is one file's backing store. synced is the durable watermark:
// buf[:synced] survives a Crash, buf[synced:] is the volatile tail.
type memData struct {
	buf    []byte
	synced int
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{files: make(map[string]*memData)}
}

// FailWrites makes the next n writes (across all files) fail with err
// before touching any bytes. A nil err defaults to a generic I/O error.
func (m *Mem) FailWrites(n int, err error) {
	if err == nil {
		err = errors.New("faultfs: injected write error")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failWrites = n
	m.writeErr = err
}

// ShortWrites makes the next n writes write only a prefix (about half,
// at least one byte) and return io.ErrShortWrite — the classic partial
// append a store must repair.
func (m *Mem) ShortWrites(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shortWrites = n
}

// FailSyncs makes the next n Sync calls fail with err without advancing
// the durable watermark. A nil err defaults to a generic fsync error.
func (m *Mem) FailSyncs(n int, err error) {
	if err == nil {
		err = errors.New("faultfs: injected fsync error")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failSyncs = n
	m.syncErr = err
}

// Heal clears every pending fault injection.
func (m *Mem) Heal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failWrites, m.shortWrites, m.failSyncs = 0, 0, 0
}

// Crash simulates power loss: every file loses its volatile tail (bytes
// written since the last successful Sync), every open handle starts
// returning ErrCrashed, and the filesystem is usable again — like a
// reboot. tear keeps up to tear bytes of each file's unsynced tail, the
// partial sector the disk happened to flush, so loaders can be tested
// against torn final records.
func (m *Mem) Crash(tear int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.files {
		keep := d.synced
		if tear > 0 && keep+tear < len(d.buf) {
			keep += tear
		} else if tear > 0 {
			keep = len(d.buf)
		}
		d.buf = d.buf[:keep:keep]
		if d.synced > len(d.buf) {
			d.synced = len(d.buf)
		}
	}
	m.gen++
	m.failWrites, m.shortWrites, m.failSyncs = 0, 0, 0
}

// Durable returns a copy of the bytes of name that would survive a
// crash right now (everything up to the durable watermark).
func (m *Mem) Durable(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[name]
	if d == nil {
		return nil
	}
	return append([]byte(nil), d.buf[:d.synced]...)
}

// Bytes returns a copy of the full current contents of name, volatile
// tail included.
func (m *Mem) Bytes(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[name]
	if d == nil {
		return nil
	}
	return append([]byte(nil), d.buf...)
}

// OpenFile opens (or creates, with os.O_CREATE) an in-memory file.
func (m *Mem) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[name]
	if d == nil {
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		d = &memData{}
		m.files[name] = d
	}
	if flag&os.O_TRUNC != 0 {
		d.buf = nil
		d.synced = 0
	}
	return &memFile{fs: m, d: d, name: name, gen: m.gen}, nil
}

// Rename atomically replaces newpath with oldpath, carrying the durable
// watermark with it.
func (m *Mem) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[oldpath]
	if d == nil {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = d
	return nil
}

// Remove deletes a file.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// memFile is one open handle: a position into the shared memData, dead
// once the generation it was opened in has crashed.
type memFile struct {
	fs     *Mem
	d      *memData
	name   string
	pos    int64
	gen    uint64
	closed bool
}

func (f *memFile) check() error {
	if f.closed {
		return fs.ErrClosed
	}
	if f.gen != f.fs.gen {
		return ErrCrashed
	}
	return nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if f.pos >= int64(len(f.d.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.buf[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if off >= int64(len(f.d.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if f.fs.failWrites > 0 {
		f.fs.failWrites--
		return 0, f.fs.writeErr
	}
	n := len(p)
	var werr error
	if f.fs.shortWrites > 0 && n > 0 {
		f.fs.shortWrites--
		n = n / 2
		if n == 0 {
			n = 1
		}
		werr = io.ErrShortWrite
	}
	end := f.pos + int64(n)
	if end > int64(len(f.d.buf)) {
		// Amortised growth: appends extend into spare capacity and
		// reallocate geometrically, like a real file's page cache, so
		// an append-only log costs O(total bytes), not O(N²). Spare
		// capacity is always zero — Crash and Truncate cap it away —
		// so a write past the end leaves a zero-filled hole.
		f.d.buf = append(f.d.buf, make([]byte, int(end)-len(f.d.buf))...)
	}
	copy(f.d.buf[f.pos:end], p[:n])
	f.pos = end
	return n, werr
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	switch whence {
	case io.SeekStart:
		f.pos = offset
	case io.SeekCurrent:
		f.pos += offset
	case io.SeekEnd:
		f.pos = int64(len(f.d.buf)) + offset
	default:
		return 0, errors.New("faultfs: bad whence")
	}
	if f.pos < 0 {
		f.pos = 0
		return 0, errors.New("faultfs: negative seek")
	}
	return f.pos, nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	if f.fs.failSyncs > 0 {
		f.fs.failSyncs--
		return f.fs.syncErr
	}
	f.d.synced = len(f.d.buf)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	if size < 0 || size > int64(len(f.d.buf)) {
		if size < 0 {
			return errors.New("faultfs: negative truncate")
		}
		return nil
	}
	f.d.buf = f.d.buf[:size:size]
	if f.d.synced > int(size) {
		f.d.synced = int(size)
	}
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.closed = true
	return nil
}

func (f *memFile) Name() string { return f.name }
