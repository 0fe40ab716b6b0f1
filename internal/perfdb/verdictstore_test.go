package perfdb

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
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

func TestVerdictStoreToleratesCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.db")
	good := "2222222222222222222222222222222222222222222222222222222222222222 1\n"
	corrupt := "# comment line\n" +
		"\n" +
		"nothex!22222222222222222222222222222222222222222222222222222222 1\n" +
		"22222222222222222222222222222222222222222222222222222222222222 1\n" + // short key
		good +
		"3333333333333333333333333333333333333333333333333333333333333333 2\n" + // bad verdict
		"4444444444444444444444444444444444444444444444444444444444444444" // torn final line
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (only the well-formed record)", s.Len())
	}
	if v, ok := s.Get(key(0x22)); !ok || !v {
		t.Fatalf("well-formed record lost: %v, %v", v, ok)
	}
	// The store must still accept appends after loading a corrupt file,
	// and a reopen must see them.
	if err := s.Put(key(5), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get(key(5)); !ok || v {
		t.Fatalf("post-corruption append lost: %v, %v", v, ok)
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
	if err := s.Flush(); err != nil {
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
