package perfdb

// File-backed verdict store: the persistence tier of the engine's
// content-addressed verdict cache. The format is an append-only text log,
// one record per line:
//
//	<64 hex chars of the canonical LP hash> <0|1>
//
// Append-only keeps writes crash-tolerant (a torn final line is dropped
// on load) and makes the file trivially mergeable across machines — cat
// two stores together and the later record for a key wins on load. A
// key's verdict is a pure function of its content, so duplicates can
// never legitimately disagree: Put refuses a verdict that contradicts a
// known one (ErrVerdictConflict) instead of overwriting it.
// counterpointd opens one with -verdict-db and wires it into the engine
// via engine.WithVerdictStore.
//
// Durability contract: Put acks a verdict only after it has been flushed
// AND fsynced (Sync) — the OS buffer alone does not survive power loss,
// and an acked-then-lost verdict would silently re-solve on the next
// boot, or worse, disagree with a peer that trusted the ack. The store
// runs on a faultfs.FS so the crash-consistency suite can pull the plug
// between flush and fsync and pin that contract.

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/faultfs"
)

// ErrVerdictConflict is returned by Put for a known key arriving with the
// opposite verdict. Verdicts are pure functions of LP content, so a
// conflict means a solver bug or a hash collision; the first verdict is
// kept.
var ErrVerdictConflict = errors.New("perfdb: conflicting verdict for a known LP hash")

// VerdictStore is a concurrency-safe, file-backed map from canonical LP
// hashes to feasibility verdicts. It satisfies engine.VerdictStore.
type VerdictStore struct {
	mu     sync.Mutex
	m      map[[32]byte]bool
	f      faultfs.File
	w      *bufio.Writer
	closed bool
}

// OpenVerdictStore opens (creating if needed) the store at path on the
// real filesystem.
func OpenVerdictStore(path string) (*VerdictStore, error) {
	return OpenVerdictStoreFS(faultfs.OS{}, path)
}

// OpenVerdictStoreFS opens (creating if needed) the store at path on
// fsys and loads every well-formed record. Malformed or torn lines — a
// crash mid-append, a truncated copy — are skipped, not fatal: losing a
// cached verdict only costs a re-solve.
func OpenVerdictStoreFS(fsys faultfs.FS, path string) (*VerdictStore, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("perfdb: open verdict store: %w", err)
	}
	s := &VerdictStore{m: make(map[[32]byte]bool), f: f}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		key, verdict, ok := parseRecord(sc.Text())
		if !ok {
			continue
		}
		s.m[key] = verdict
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("perfdb: read verdict store: %w", err)
	}
	// Appends go through one buffered writer positioned at the end.
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("perfdb: seek verdict store: %w", err)
	}
	s.w = bufio.NewWriter(f)
	// A torn final line (crash mid-append) has no trailing newline; start
	// our appends with one so the next record doesn't glue onto it.
	if size > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], size-1); err != nil {
			f.Close()
			return nil, fmt.Errorf("perfdb: read verdict store tail: %w", err)
		}
		if last[0] != '\n' {
			s.w.WriteByte('\n')
		}
	}
	return s, nil
}

// parseRecord parses one "hexkey 0|1" line.
func parseRecord(line string) (key [32]byte, verdict, ok bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return key, false, false
	}
	fields := strings.Fields(line)
	if len(fields) != 2 || len(fields[0]) != 64 {
		return key, false, false
	}
	b, err := hex.DecodeString(fields[0])
	if err != nil || len(b) != 32 {
		return key, false, false
	}
	copy(key[:], b)
	switch fields[1] {
	case "0":
		return key, false, true
	case "1":
		return key, true, true
	}
	return key, false, false
}

// Get returns the stored verdict for key, if any.
func (s *VerdictStore) Get(key [32]byte) (bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

// Put records the verdict for key and commits it: the record is
// appended, flushed, and fsynced before Put returns nil, so an acked
// verdict survives power loss. The fsync is per fresh verdict, which is
// noise next to the LP solve that produced it. Duplicate puts of a known
// key are deduplicated in memory and on disk (and cost no I/O at all); a
// put contradicting a known key keeps the stored verdict and returns
// ErrVerdictConflict.
func (s *VerdictStore) Put(key [32]byte, verdict bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("perfdb: verdict store closed")
	}
	if prev, ok := s.m[key]; ok {
		if prev != verdict {
			return ErrVerdictConflict
		}
		return nil
	}
	s.m[key] = verdict
	bit := byte('0')
	if verdict {
		bit = '1'
	}
	var line [67]byte
	hex.Encode(line[:64], key[:])
	line[64] = ' '
	line[65] = bit
	line[66] = '\n'
	if _, err := s.w.Write(line[:]); err != nil {
		return fmt.Errorf("perfdb: append verdict: %w", err)
	}
	return s.syncLocked()
}

// Len reports how many verdicts the store holds.
func (s *VerdictStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Flush forces buffered appends to the operating system. It does NOT
// fsync — a flushed-but-unsynced record can still be lost to power
// failure; use Sync for the durability barrier.
func (s *VerdictStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("perfdb: flush verdict store: %w", err)
	}
	return nil
}

// Sync flushes buffered appends and fsyncs the backing file: after a nil
// return every previously appended verdict survives a crash.
func (s *VerdictStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncLocked()
}

func (s *VerdictStore) syncLocked() error {
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("perfdb: flush verdict store: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("perfdb: sync verdict store: %w", err)
	}
	return nil
}

// Close flushes, syncs, and closes the backing file. The store rejects
// writes afterwards; Close is idempotent.
func (s *VerdictStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	serr := func() error {
		if err := s.w.Flush(); err != nil {
			return fmt.Errorf("perfdb: flush verdict store: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("perfdb: sync verdict store: %w", err)
		}
		return nil
	}()
	cerr := s.f.Close()
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("perfdb: close verdict store: %w", cerr)
	}
	return nil
}
