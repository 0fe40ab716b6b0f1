package perfdb

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/recordlog"
)

func key(b byte) (k [32]byte) {
	for i := range k {
		k[i] = b
	}
	return k
}

func TestVerdictStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.db")
	s, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("fresh store Len = %d", s.Len())
	}
	if err := s.Put(key(1), true); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(2), false); err != nil {
		t.Fatal(err)
	}
	// Duplicate put: no growth.
	if err := s.Put(key(1), true); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(key(1)); !ok || !v {
		t.Fatalf("Get(1) = %v, %v", v, ok)
	}
	if v, ok := s.Get(key(2)); !ok || v {
		t.Fatalf("Get(2) = %v, %v", v, ok)
	}
	if _, ok := s.Get(key(3)); ok {
		t.Fatal("phantom key")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put(key(4), true); err == nil {
		t.Fatal("Put after Close succeeded")
	}

	// Reopen: both verdicts survive, the duplicate collapsed.
	s2, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", s2.Len())
	}
	if v, ok := s2.Get(key(1)); !ok || !v {
		t.Fatalf("reopened Get(1) = %v, %v", v, ok)
	}
	if v, ok := s2.Get(key(2)); !ok || v {
		t.Fatalf("reopened Get(2) = %v, %v", v, ok)
	}
}

// TestVerdictStoreBitFlipTruncates: one flipped byte inside a middle
// record must not be served as a verdict. The prefix before it loads,
// that record and everything after it are cut, the repair is reported,
// and the store appends cleanly afterwards.
func TestVerdictStoreBitFlipTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.db")
	s, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []bool{true, false, true} {
		if err := s.Put(key(byte(i+1)), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := len(b) / 3
	b[rec+rec/2] ^= 0x01 // inside the second record's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Repaired() {
		t.Fatal("bit flip not reported as a repair")
	}
	if v, ok := s2.Get(key(1)); !ok || !v {
		t.Fatalf("prefix record lost: %v, %v", v, ok)
	}
	for _, k := range []byte{2, 3} {
		if _, ok := s2.Get(key(k)); ok {
			t.Fatalf("record %d at or after the flipped byte was served", k)
		}
	}
	if s2.Len() != 1 || fileSize(t, path) != int64(rec) {
		t.Fatalf("after repair Len = %d, size = %d; want 1, %d", s2.Len(), fileSize(t, path), rec)
	}
	if err := s2.Put(key(5), false); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Repaired() || s3.Len() != 2 {
		t.Fatalf("reopen after repair: repaired %v, Len %d; want false, 2", s3.Repaired(), s3.Len())
	}
	if v, ok := s3.Get(key(5)); !ok || v {
		t.Fatalf("post-repair append lost: %v, %v", v, ok)
	}
}

// TestVerdictStoreRefusesLegacyText: a store in the old "hexhash 0|1"
// text format is not a record log. Opening it fails with ErrForeign and
// leaves every byte as it was.
func TestVerdictStoreRefusesLegacyText(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.db")
	text := []byte("2222222222222222222222222222222222222222222222222222222222222222 1\n" +
		"3333333333333333333333333333333333333333333333333333333333333333 0\n")
	if err := os.WriteFile(path, text, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := OpenVerdictStore(path); !errors.Is(err, recordlog.ErrForeign) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("open legacy text store: err = %v, want ErrForeign", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, text) {
		t.Fatalf("legacy file changed by the refused open:\n%q\nwant\n%q", got, text)
	}
}

// TestVerdictStoreConcatenatedLogs: two stores concatenated byte for
// byte load as their union, and for a key both hold with different
// verdicts the first log's verdict wins.
func TestVerdictStoreConcatenatedLogs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs map[byte]bool) []byte {
		path := filepath.Join(dir, name)
		s, err := OpenVerdictStore(path)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range recs {
			if err := s.Put(key(k), v); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := write("a.db", map[byte]bool{1: true, 2: false, 9: true})
	b := write("b.db", map[byte]bool{3: true, 9: false})
	path := filepath.Join(dir, "merged.db")
	if err := os.WriteFile(path, append(a, b...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Repaired() || s.Len() != 4 {
		t.Fatalf("merged store: repaired %v, Len %d; want false, 4", s.Repaired(), s.Len())
	}
	want := map[byte]bool{1: true, 2: false, 3: true, 9: true}
	for k, w := range want {
		if v, ok := s.Get(key(k)); !ok || v != w {
			t.Fatalf("merged Get(%d) = %v, %v; want %v", k, v, ok, w)
		}
	}
}

func TestVerdictStoreFlushVisibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.db")
	s, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(key(7), true); err != nil {
		t.Fatal(err)
	}
	// Another reader (a second process in real use) sees flushed records.
	s2, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get(key(7)); !ok || !v {
		t.Fatalf("flushed record invisible to reader: %v, %v", v, ok)
	}
}

// TestVerdictStoreConflict checks a put contradicting a known key keeps
// the first verdict, appends nothing, and returns ErrVerdictConflict.
func TestVerdictStoreConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.db")
	s, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), true); err != nil {
		t.Fatal(err)
	}
	size := fileSize(t, path)
	if err := s.Put(key(1), false); !errors.Is(err, ErrVerdictConflict) {
		t.Fatalf("conflicting Put = %v, want ErrVerdictConflict", err)
	}
	if v, ok := s.Get(key(1)); !ok || !v {
		t.Fatalf("Get after conflict = %v, %v; want the first verdict", v, ok)
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("conflicting Put grew the log from %d to %d bytes", size, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get(key(1)); !ok || !v || s2.Len() != 1 {
		t.Fatalf("reopened Get = %v, %v (Len %d); want the first verdict only", v, ok, s2.Len())
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestVerdictStoreSkipsCLP1: records keyed by the retired clp1 encoding
// are counted and never served, while clp2 records beside them load.
func TestVerdictStoreSkipsCLP1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.db")
	log, _, err := recordlog.Open(faultfs.OS{}, path, func(byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := key(1), key(2)
	for _, rec := range []struct {
		typ byte
		p   []byte
	}{
		{recVerdictCLP1, append(k1[:], 1)},
		{recVerdict, append(k2[:], 0)},
		{recVerdictCLP1, append(k2[:], 1)},
	} {
		if err := log.Append(rec.typ, rec.p, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.SkippedCLP1() != 2 || s.Len() != 1 {
		t.Fatalf("skipped %d, loaded %d; want 2 and 1", s.SkippedCLP1(), s.Len())
	}
	if _, ok := s.Get(k1); ok {
		t.Fatal("a clp1 verdict was served")
	}
	if v, ok := s.Get(k2); !ok || v {
		t.Fatalf("Get(clp2 key) = %v, %v; want false, true", v, ok)
	}
}
