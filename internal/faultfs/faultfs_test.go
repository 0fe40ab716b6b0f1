package faultfs

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func openRW(t *testing.T, fsys FS, name string) File {
	t.Helper()
	f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", name, err)
	}
	return f
}

func TestMemWriteSyncCrash(t *testing.T) {
	m := NewMem()
	f := openRW(t, m, "j")
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if _, err := f.Write([]byte("+volatile")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := m.Bytes("j"); string(got) != "durable+volatile" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := m.Durable("j"); string(got) != "durable" {
		t.Fatalf("Durable = %q", got)
	}

	m.Crash(0)
	// The old handle is dead.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: err = %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: err = %v, want ErrCrashed", err)
	}
	// Reopening sees only the synced prefix.
	g := openRW(t, m, "j")
	got, err := io.ReadAll(g)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "durable" {
		t.Fatalf("after crash file = %q, want %q", got, "durable")
	}
}

func TestMemCrashTornTail(t *testing.T) {
	m := NewMem()
	f := openRW(t, m, "j")
	if _, err := f.Write([]byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("unsynced-record")); err != nil {
		t.Fatal(err)
	}
	m.Crash(3)
	if got := m.Bytes("j"); string(got) != "baseuns" {
		t.Fatalf("after torn crash = %q, want %q", got, "baseuns")
	}
	// A tear larger than the volatile tail keeps everything.
	g := openRW(t, m, "j")
	if _, err := g.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("!!")); err != nil {
		t.Fatal(err)
	}
	m.Crash(100)
	if got := m.Bytes("j"); string(got) != "baseuns!!" {
		t.Fatalf("after big-tear crash = %q", got)
	}
}

func TestMemShortAndFailedWrites(t *testing.T) {
	m := NewMem()
	f := openRW(t, m, "j")

	m.ShortWrites(1)
	n, err := f.Write([]byte("abcdefgh"))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write err = %v", err)
	}
	if n != 4 {
		t.Fatalf("short write n = %d, want 4", n)
	}
	if got := m.Bytes("j"); string(got) != "abcd" {
		t.Fatalf("after short write = %q", got)
	}

	injected := errors.New("disk on fire")
	m.FailWrites(1, injected)
	if n, err := f.Write([]byte("zz")); err != injected || n != 0 {
		t.Fatalf("failed write = (%d, %v), want (0, injected)", n, err)
	}
	// Faults are consumed; the next write succeeds.
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("write after faults: %v", err)
	}
	if got := m.Bytes("j"); string(got) != "abcdok" {
		t.Fatalf("final = %q", got)
	}
}

func TestMemFailedSyncKeepsWatermark(t *testing.T) {
	m := NewMem()
	f := openRW(t, m, "j")
	if _, err := f.Write([]byte("record")); err != nil {
		t.Fatal(err)
	}
	m.FailSyncs(1, nil)
	if err := f.Sync(); err == nil {
		t.Fatal("injected sync error did not fire")
	}
	// The failed fsync must not have made anything durable.
	m.Crash(0)
	if got := m.Bytes("j"); len(got) != 0 {
		t.Fatalf("after failed-sync crash = %q, want empty", got)
	}
}

func TestMemTruncateAndSeek(t *testing.T) {
	m := NewMem()
	f := openRW(t, m, "j")
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if got := m.Bytes("j"); string(got) != "0123" {
		t.Fatalf("after truncate = %q", got)
	}
	// Truncate below the watermark pulls the watermark down too.
	m.Crash(0)
	if got := m.Bytes("j"); string(got) != "0123" {
		t.Fatalf("after truncate+crash = %q", got)
	}
	g := openRW(t, m, "j")
	if off, err := g.Seek(0, io.SeekEnd); err != nil || off != 4 {
		t.Fatalf("seek end = (%d, %v)", off, err)
	}
	if _, err := g.Write([]byte("45")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if n, err := g.ReadAt(buf, 2); err != nil || n != 3 {
		t.Fatalf("ReadAt = (%d, %v)", n, err)
	}
	if string(buf) != "234" {
		t.Fatalf("ReadAt = %q", buf)
	}
}

// TestMemAppendGrowth pins the amortised append path: many small appends
// keep the watermark semantics, and a write past the end after a
// truncate (which drops spare capacity holding old bytes) leaves a zero
// hole rather than resurrecting them.
func TestMemAppendGrowth(t *testing.T) {
	m := NewMem()
	f := openRW(t, m, "j")
	var want []byte
	for i := 0; i < 1000; i++ {
		rec := []byte{byte(i), byte(i >> 8), '\n'}
		if _, err := f.Write(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec...)
		if i == 499 {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := m.Bytes("j"); !bytes.Equal(got, want) {
		t.Fatalf("Bytes differ after %d appends", 1000)
	}
	if got := m.Durable("j"); !bytes.Equal(got, want[:1500]) {
		t.Fatalf("Durable = %d bytes, want 1500", len(got))
	}
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := m.Bytes("j"); !bytes.Equal(got, append(want[:2:2], 0, 0, 0, 0, 'x')) {
		t.Fatalf("after truncate and write past the end = %q", got)
	}
}

func TestMemOpenRenameRemove(t *testing.T) {
	m := NewMem()
	if _, err := m.OpenFile("missing", os.O_RDWR, 0o644); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
	f := openRW(t, m, "a")
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("a", "b"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if m.Bytes("a") != nil {
		t.Fatal("a survived rename")
	}
	if string(m.Bytes("b")) != "x" {
		t.Fatal("b missing after rename")
	}
	if err := m.Remove("b"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := m.Remove("b"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
	// O_TRUNC resets content and watermark.
	g := openRW(t, m, "c")
	if _, err := g.Write([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	h, err := m.OpenFile("c", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(h); len(got) != 0 {
		t.Fatalf("after O_TRUNC = %q", got)
	}
}

// TestOSRoundTrip pins that the production passthrough satisfies the
// same contract the stores rely on (minus crash simulation).
func TestOSRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	var fsys FS = OS{}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hell")) {
		t.Fatalf("read back %q", got)
	}
	if f.Name() != path {
		t.Fatalf("Name = %q", f.Name())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(t.TempDir(), "g")
	if err := fsys.Rename(path, other); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(other); err != nil {
		t.Fatal(err)
	}
}
