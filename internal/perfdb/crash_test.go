package perfdb

// Crash-consistency suite for VerdictStore on the faultfs harness: an
// acked Put must survive power loss, and injected write/fsync faults
// must surface as errors instead of silent data loss.

import (
	"errors"
	"io"
	"testing"

	"repro/internal/faultfs"
)

func vkey(b byte) (k [32]byte) {
	for i := range k {
		k[i] = b
	}
	return k
}

// TestVerdictStoreAckedPutSurvivesCrash is the regression test for the
// Flush-stops-at-the-OS-buffer bug: before Put fsynced, a verdict could
// be acked, flushed, and still vanish in a power loss. Kill the machine
// right after Put returns — the verdict must be there on reopen.
func TestVerdictStoreAckedPutSurvivesCrash(t *testing.T) {
	m := faultfs.NewMem()
	s, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(vkey(1), true); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Put(vkey(2), false); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Power loss. No Close, no extra Flush/Sync: whatever Put acked is
	// all we get to keep.
	m.Crash(0)

	r, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if v, ok := r.Get(vkey(1)); !ok || !v {
		t.Fatalf("verdict 1 after crash = (%v, %v), want (true, true)", v, ok)
	}
	if v, ok := r.Get(vkey(2)); !ok || v {
		t.Fatalf("verdict 2 after crash = (%v, %v), want (false, true)", v, ok)
	}
	if r.Len() != 2 {
		t.Fatalf("Len after crash = %d, want 2", r.Len())
	}
}

// TestVerdictStoreFailedSyncIsNotAcked pins the other half of the
// contract: when the fsync fails, Put must return the error (the engine
// counts it as a store error) — and losing that record in a crash is
// then legal, not a lie.
func TestVerdictStoreFailedSyncIsNotAcked(t *testing.T) {
	m := faultfs.NewMem()
	s, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatal(err)
	}
	m.FailSyncs(1, nil)
	if err := s.Put(vkey(3), true); err == nil {
		t.Fatal("Put acked a verdict whose fsync failed")
	}
	// The store still serves it from memory for this process.
	if v, ok := s.Get(vkey(3)); !ok || !v {
		t.Fatalf("in-memory verdict after failed sync = (%v, %v)", v, ok)
	}
	m.Crash(0)
	r, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Get(vkey(3)); ok {
		// Fine either way semantically, but with the fsync failing before
		// any sync succeeded nothing can be durable here.
		t.Fatal("unacked verdict unexpectedly durable")
	}
}

// TestVerdictStoreShortWriteSurfacesError: a short write must fail the
// Put (bufio reports the underlying error on flush) rather than ack a
// half-record.
func TestVerdictStoreShortWriteSurfacesError(t *testing.T) {
	m := faultfs.NewMem()
	s, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(vkey(4), true); err != nil {
		t.Fatal(err)
	}
	m.ShortWrites(1)
	if err := s.Put(vkey(5), true); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short-write Put err = %v, want ErrShortWrite", err)
	}
	// The earlier acked record must be untouched by the torn tail: crash
	// and reload.
	m.Crash(0)
	r, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, ok := r.Get(vkey(4)); !ok || !v {
		t.Fatalf("acked verdict lost after short write + crash: (%v, %v)", v, ok)
	}
}

// TestVerdictStoreTornTailRepair: a crash that tears the final line must
// not corrupt the store — the torn line is dropped on load and the next
// append starts on a fresh line.
func TestVerdictStoreTornTailRepair(t *testing.T) {
	m := faultfs.NewMem()
	s, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(vkey(6), true); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(vkey(7), false); err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the last record: keep the synced prefix plus
	// 10 bytes of whatever was in flight. Write one more record without
	// letting its fsync land, then tear it.
	m.FailSyncs(1, nil)
	_ = s.Put(vkey(8), true)
	m.Crash(10)

	r, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if v, ok := r.Get(vkey(6)); !ok || !v {
		t.Fatalf("verdict 6 lost to torn tail: (%v, %v)", v, ok)
	}
	if v, ok := r.Get(vkey(7)); !ok || v {
		t.Fatalf("verdict 7 lost to torn tail: (%v, %v)", v, ok)
	}
	if _, ok := r.Get(vkey(8)); ok {
		t.Fatal("torn record parsed as valid")
	}
	// Appends after repair are well-formed: add a record, crash, reload.
	if err := r.Put(vkey(9), true); err != nil {
		t.Fatal(err)
	}
	m.Crash(0)
	r2, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if v, ok := r2.Get(vkey(9)); !ok || !v {
		t.Fatalf("post-repair append lost: (%v, %v)", v, ok)
	}
	if r2.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r2.Len())
	}
}

// TestVerdictStoreReputAfterFailedSyncIsDurable is the lost-ack
// regression: a Put whose fsync failed leaves its verdict in memory, and
// the next Put of the same key must append it again before acking —
// not ack it from memory and lose it in the next crash.
func TestVerdictStoreReputAfterFailedSyncIsDurable(t *testing.T) {
	m := faultfs.NewMem()
	s, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatal(err)
	}
	m.FailSyncs(1, nil)
	if err := s.Put(vkey(10), true); err == nil {
		t.Fatal("Put acked a verdict whose fsync failed")
	}
	if err := s.Put(vkey(10), true); err != nil {
		t.Fatalf("re-put after a failed fsync: %v", err)
	}
	m.Crash(0)
	r, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, ok := r.Get(vkey(10)); !ok || !v {
		t.Fatalf("acked re-put lost in crash: (%v, %v)", v, ok)
	}
}

// TestVerdictStoreShortWriteDoesNotStick: one short write fails one Put
// and nothing more. The next Put of a new key is acked and survives a
// crash, with no torn frame left between them.
func TestVerdictStoreShortWriteDoesNotStick(t *testing.T) {
	m := faultfs.NewMem()
	s, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatal(err)
	}
	m.ShortWrites(1)
	if err := s.Put(vkey(11), true); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short-write Put err = %v, want ErrShortWrite", err)
	}
	if err := s.Put(vkey(12), false); err != nil {
		t.Fatalf("Put after one short write: %v", err)
	}
	m.Crash(0)
	r, err := OpenVerdictStoreFS(m, "v.db")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Repaired() {
		t.Fatal("short write left a torn frame behind")
	}
	if v, ok := r.Get(vkey(12)); !ok || v {
		t.Fatalf("verdict acked after a short write lost in crash: (%v, %v)", v, ok)
	}
}
