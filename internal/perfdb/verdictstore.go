package perfdb

// File-backed verdict store: the persistence tier of the engine's
// content-addressed verdict cache. The file is an internal/recordlog log
// of recVerdict records, each a 33-byte payload: the 32-byte canonical LP
// hash (core.HashLP, the clp2 encoding), then 0 (infeasible) or 1
// (feasible). The CRC frame means a flipped byte is a repaired tail, never
// a silently inverted verdict. Records keyed by the retired clp1 text
// encoding (type recVerdictCLP1) are skipped and counted on load, never
// served: their keys hash different bytes, so they could only ever miss.
//
// Append-only keeps writes crash-tolerant and makes stores mergeable
// across machines — cat two logs together and the first record for a key
// wins on load, the same rule Put applies. A key's verdict is a pure
// function of its content, so duplicates can never legitimately
// disagree: Put refuses a verdict that contradicts a known one
// (ErrVerdictConflict) instead of overwriting it. counterpointd opens one
// with -verdict-db and wires it into the engine via
// engine.WithVerdictStore.
//
// Durability contract: Put acks a verdict only after its record is
// fsynced — an acked-then-lost verdict would silently re-solve on the
// next boot, or worse, disagree with a peer that trusted the ack. A
// verdict whose append or fsync failed is still served from memory but
// stays marked not durable, and the next Put of its key appends it again
// before acking. The store runs on a faultfs.FS so the crash-consistency
// suite can pull the plug between write and fsync and pin that contract.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/faultfs"
	"repro/internal/recordlog"
)

// Verdict record types: recVerdict keys by the clp2 canonical hash;
// recVerdictCLP1 records, keyed by the retired clp1 text encoding, are
// skipped on load.
const (
	recVerdictCLP1 byte = 0x10
	recVerdict     byte = 0x11
)

// ErrVerdictConflict is returned by Put for a known key arriving with the
// opposite verdict. Verdicts are pure functions of LP content, so a
// conflict means a solver bug or a hash collision; the first verdict is
// kept.
var ErrVerdictConflict = errors.New("perfdb: conflicting verdict for a known LP hash")

// VerdictStore is a concurrency-safe, file-backed map from canonical LP
// hashes to feasibility verdicts. It satisfies engine.VerdictStore.
type VerdictStore struct {
	mu       sync.Mutex
	m        map[[32]byte]bool
	unsynced map[[32]byte]bool // served from memory, not yet durable
	log      *recordlog.Log
	repaired bool
	skipped  int // clp1 records skipped on load
	closed   bool
}

// OpenVerdictStore opens (creating if needed) the store at path on the
// real filesystem.
func OpenVerdictStore(path string) (*VerdictStore, error) {
	return OpenVerdictStoreFS(faultfs.OS{}, path)
}

// OpenVerdictStoreFS opens (creating if needed) the store at path on
// fsys and loads every intact record, truncating a damaged tail (a crash
// mid-append, a flipped byte): losing a cached verdict only costs a
// re-solve. A file that is not a record log — such as a store written in
// the old text format — fails with recordlog.ErrForeign and is left
// untouched.
func OpenVerdictStoreFS(fsys faultfs.FS, path string) (*VerdictStore, error) {
	s := &VerdictStore{m: make(map[[32]byte]bool), unsynced: make(map[[32]byte]bool)}
	log, repaired, err := recordlog.Open(fsys, path, func(typ byte, p []byte) {
		if typ == recVerdictCLP1 {
			s.skipped++
			return
		}
		if typ != recVerdict || len(p) != 33 || p[32] > 1 {
			return
		}
		if _, ok := s.m[[32]byte(p)]; !ok {
			s.m[[32]byte(p)] = p[32] == 1
		}
	})
	if err != nil {
		return nil, fmt.Errorf("perfdb: open verdict store: %w", err)
	}
	s.log, s.repaired = log, repaired
	return s, nil
}

// Repaired reports whether opening the store truncated a damaged tail.
func (s *VerdictStore) Repaired() bool { return s.repaired }

// SkippedCLP1 reports how many verdicts keyed by the retired clp1 LP
// encoding opening the store skipped.
func (s *VerdictStore) SkippedCLP1() int { return s.skipped }

// Get returns the stored verdict for key, if any.
func (s *VerdictStore) Get(key [32]byte) (bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

// Put records the verdict for key and commits it: the record is appended
// and fsynced before Put returns nil, so an acked verdict survives power
// loss. The fsync is per fresh verdict, which is noise next to the LP
// solve that produced it. A duplicate put of a durable key costs no I/O;
// a put contradicting a known key keeps the stored verdict and returns
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
		if !s.unsynced[key] {
			return nil
		}
	}
	s.m[key] = verdict
	var rec [33]byte
	copy(rec[:], key[:])
	if verdict {
		rec[32] = 1
	}
	if err := s.log.Append(recVerdict, rec[:], true); err != nil {
		s.unsynced[key] = true
		return fmt.Errorf("perfdb: append verdict: %w", err)
	}
	delete(s.unsynced, key)
	return nil
}

// Len reports how many verdicts the store holds.
func (s *VerdictStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Close syncs and closes the backing file. The store rejects writes
// afterwards; Close is idempotent.
func (s *VerdictStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.log.Close(); err != nil {
		return fmt.Errorf("perfdb: close verdict store: %w", err)
	}
	return nil
}
