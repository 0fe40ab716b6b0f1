// Package jobstore is counterpointd's durable job journal: an
// append-only internal/recordlog log (see journal.go for the records)
// that implements jobs.Journal, so every submit, event, checkpoint and
// terminal outcome of a jobs.Manager survives a crash. On reopen the
// loader repairs a torn tail (truncate at the first bad frame), and
// Recover (recover.go) adopts the journaled jobs back into a fresh
// manager — re-listing terminal jobs and auto-resuming interrupted ones
// from their last checkpoint.
//
// Durability contract:
//
//   - JobSubmitted fsyncs before acking: a job the client was told
//     exists is on disk. A failed write rejects the submission.
//   - Events are appended without fsync (they ride the next commit
//     barrier); checkpoints are coalesced per job (CheckpointEvery) and
//     fsynced when flushed; the terminal record flushes the pending
//     checkpoint and fsyncs, so every exit path — success, failure,
//     cancellation, panic — lands its final frontier durably.
//   - Transient write errors are retried with backoff; persistent ones
//     flip the store into a degraded state: records are dropped (and
//     counted), Health reports the error and the next probe time, and
//     the daemon keeps serving from memory while refusing new durable
//     submits (the server maps that to 503 + Retry-After). A later
//     successful probe reopens the file and clears the state.
//   - The log compacts (rewrite live records, fsync, atomic rename)
//     when it exceeds CompactFactor times its live content.
package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultfs"
	"repro/internal/jobs"
	"repro/internal/recordlog"
)

// ErrClosed reports an append on a closed store.
var ErrClosed = errors.New("jobstore: store closed")

// Default Options values.
const (
	DefaultCheckpointEvery    = 200 * time.Millisecond
	DefaultRetryAttempts      = 3
	DefaultRetryBackoff       = 10 * time.Millisecond
	DefaultDegradedBackoff    = time.Second
	DefaultDegradedBackoffMax = time.Minute
	DefaultCompactMinBytes    = 1 << 20
	DefaultCompactFactor      = 4.0
)

// Options configures a Store.
type Options struct {
	// FS is the filesystem the journal lives on. nil means the real one
	// (faultfs.OS); tests inject faultfs.Mem to simulate crashes.
	FS faultfs.FS
	// CheckpointEvery coalesces per-job checkpoint journaling: within the
	// window only the latest checkpoint is kept, flushed when the window
	// elapses or the job finishes. Sweeps checkpoint per cell — this is
	// what keeps that O(cells) fsyncs instead of O(cells²) bytes.
	// 0 means DefaultCheckpointEvery; negative flushes every checkpoint.
	CheckpointEvery time.Duration
	// RetryAttempts and RetryBackoff govern transient-error retries per
	// append (backoff doubles per attempt). 0 means the defaults.
	RetryAttempts int
	RetryBackoff  time.Duration
	// DegradedBackoff is the initial probe delay after the store degrades,
	// doubling per consecutive degradation up to DegradedBackoffMax.
	DegradedBackoff    time.Duration
	DegradedBackoffMax time.Duration
	// CompactMinBytes and CompactFactor bound compaction: the log is
	// rewritten when it is larger than CompactMinBytes AND more than
	// CompactFactor times its live content.
	CompactMinBytes int64
	CompactFactor   float64

	// now and sleep are test hooks for the retry/degradation clocks.
	now   func() time.Time
	sleep func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = DefaultRetryAttempts
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	if o.DegradedBackoff <= 0 {
		o.DegradedBackoff = DefaultDegradedBackoff
	}
	if o.DegradedBackoffMax <= 0 {
		o.DegradedBackoffMax = DefaultDegradedBackoffMax
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = DefaultCompactMinBytes
	}
	if o.CompactFactor <= 1 {
		o.CompactFactor = DefaultCompactFactor
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.sleep == nil {
		o.sleep = time.Sleep
	}
	return o
}

// jobEntry is one job's live records: the in-memory image of the journal
// used for compaction (raw payloads) and recovery (parsed headers).
type jobEntry struct {
	id     string
	spec   specRecord // parsed; spec.Spec stays raw JSON
	specP  []byte     // raw payloads, re-framed verbatim on compaction
	events [][]byte
	ckptP  []byte
	term   terminalRecord
	termP  []byte

	terminal bool
	// pendingCp coalesces checkpoint bursts: only the latest value in a
	// CheckpointEvery window is serialized and journaled.
	pendingCp any
	lastCkpt  time.Time
}

// Store is the durable job journal. It implements jobs.Journal; all
// methods are safe for concurrent use.
type Store struct {
	opts Options

	mu     sync.Mutex
	log    *recordlog.Log
	live   int64 // bytes of live records (compaction denominator)
	index  map[string]*jobEntry
	order  []string
	closed bool

	// Degradation state.
	degraded       bool
	lastErr        error
	nextRetry      time.Time
	degradeBackoff time.Duration

	// Telemetry.
	appends      uint64
	fsyncs       uint64
	retries      uint64
	dropped      uint64
	encodeErrors uint64
	compactions  uint64
	degradations uint64
	repaired     bool
}

// Open opens (creating if needed) the journal at path, repairs any torn
// tail, loads the live record index, and compacts if the log has grown
// past its live content. The returned store is ready to be wired into a
// jobs.Manager via jobs.Options.Journal.
func Open(path string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{opts: opts, index: map[string]*jobEntry{}}
	log, repaired, err := recordlog.Open(opts.FS, path, s.applyLocked)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s.log, s.repaired = log, repaired
	s.recomputeLiveLocked()
	s.maybeCompactLocked()
	return s, nil
}

// applyLocked folds one loaded record into the index.
func (s *Store) applyLocked(typ byte, payload []byte) {
	switch typ {
	case recSpec:
		var rec specRecord
		if json.Unmarshal(payload, &rec) != nil || rec.ID == "" {
			return
		}
		if s.index[rec.ID] != nil {
			return
		}
		s.index[rec.ID] = &jobEntry{id: rec.ID, spec: rec, specP: payload}
		s.order = append(s.order, rec.ID)
	case recEvent:
		var rec eventRecord
		if json.Unmarshal(payload, &rec) != nil {
			return
		}
		if e := s.index[rec.ID]; e != nil {
			e.events = append(e.events, payload)
		}
	case recCheckpoint:
		var rec checkpointRecord
		if json.Unmarshal(payload, &rec) != nil {
			return
		}
		if e := s.index[rec.ID]; e != nil {
			e.ckptP = payload
		}
	case recTerminal:
		var rec terminalRecord
		if json.Unmarshal(payload, &rec) != nil {
			return
		}
		if e := s.index[rec.ID]; e != nil {
			e.term = rec
			e.termP = payload
			e.terminal = true
		}
	case recRemove:
		var rec removeRecord
		if json.Unmarshal(payload, &rec) != nil {
			return
		}
		s.removeEntryLocked(rec.ID)
	}
	// Unknown types: valid CRC, unknown meaning — skipped for forward
	// compatibility.
}

func (s *Store) removeEntryLocked(id string) {
	if s.index[id] == nil {
		return
	}
	delete(s.index, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *Store) recomputeLiveLocked() {
	s.live = 0
	for _, e := range s.index {
		s.live += recordlog.FrameLen(e.specP)
		for _, p := range e.events {
			s.live += recordlog.FrameLen(p)
		}
		if e.ckptP != nil {
			s.live += recordlog.FrameLen(e.ckptP)
		}
		if e.termP != nil {
			s.live += recordlog.FrameLen(e.termP)
		}
	}
}

// appendLocked is the journal's write path: degradation gate, bounded
// retries with doubling backoff, then degradation on persistent failure.
func (s *Store) appendLocked(typ byte, payload []byte, sync bool) error {
	if s.closed {
		return ErrClosed
	}
	if s.degraded && s.opts.now().Before(s.nextRetry) {
		s.dropped++
		return fmt.Errorf("jobstore: degraded: %w", s.lastErr)
	}
	backoff := s.opts.RetryBackoff
	var err error
	for try := 0; try < s.opts.RetryAttempts; try++ {
		if try > 0 {
			s.retries++
			s.opts.sleep(backoff)
			backoff *= 2
		}
		if err = s.log.Append(typ, payload, sync); err == nil {
			s.appends++
			if sync {
				s.fsyncs++
			}
			if s.degraded {
				// Probe succeeded: back to healthy.
				s.degraded = false
				s.lastErr = nil
				s.degradeBackoff = 0
			}
			return nil
		}
	}
	s.degradeLocked(err)
	s.dropped++
	return err
}

func (s *Store) degradeLocked(err error) {
	s.degradations++
	s.degraded = true
	s.lastErr = err
	if s.degradeBackoff <= 0 {
		s.degradeBackoff = s.opts.DegradedBackoff
	} else {
		s.degradeBackoff *= 2
		if s.degradeBackoff > s.opts.DegradedBackoffMax {
			s.degradeBackoff = s.opts.DegradedBackoffMax
		}
	}
	s.nextRetry = s.opts.now().Add(s.degradeBackoff)
	// Drop the handle: the probe after nextRetry reopens from scratch.
	s.log.Drop()
}

// encodeSpec serializes a submission spec for the journal via the
// DurableSpec hook (see jobs.Journal); specs without one journal as
// null and the job is listed but not auto-resumable.
func encodeSpec(spec any) (json.RawMessage, error) {
	type durable interface{ DurableSpec() (any, bool) }
	if spec == nil {
		return nil, nil
	}
	if d, ok := spec.(durable); ok {
		wire, ok := d.DurableSpec()
		if !ok {
			return nil, nil
		}
		return json.Marshal(wire)
	}
	return json.Marshal(spec)
}

// JobSubmitted implements jobs.Journal. It is the durability gate: the
// record is fsynced before the submission is acked, and an error rejects
// the submission.
func (s *Store) JobSubmitted(id, kind, resumedFrom string, created time.Time, spec any) error {
	specJSON, err := encodeSpec(spec)
	if err != nil {
		// An unserializable spec is not a storage failure: journal the job
		// without it (listed after recovery, not auto-resumable).
		specJSON = nil
	}
	rec := specRecord{ID: id, Kind: kind, ResumedFrom: resumedFrom, Created: created, Spec: specJSON}
	payload, merr := json.Marshal(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || merr != nil {
		s.encodeErrors++
		if merr != nil {
			return fmt.Errorf("jobstore: encode spec record: %w", merr)
		}
	}
	if aerr := s.appendLocked(recSpec, payload, true); aerr != nil {
		return aerr
	}
	e := &jobEntry{id: id, spec: rec, specP: payload}
	s.index[id] = e
	s.order = append(s.order, id)
	s.live += recordlog.FrameLen(payload)
	return nil
}

// JobEvent implements jobs.Journal. Events are buffered appends (no
// fsync of their own — they ride the next commit barrier); failures
// degrade the store but never the job.
func (s *Store) JobEvent(id string, ev jobs.Event) {
	data, err := json.Marshal(ev.Data)
	if ev.Data == nil {
		data, err = nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.index[id]
	if e == nil || s.closed {
		return
	}
	if err != nil {
		s.encodeErrors++
		data = nil
	}
	payload, err := json.Marshal(eventRecord{ID: id, Seq: ev.Seq, Kind: ev.Kind, Data: data})
	if err != nil {
		s.encodeErrors++
		return
	}
	// The in-memory index is authoritative even when the disk write
	// fails: a later compaction rewrites from it, healing the gap.
	e.events = append(e.events, payload)
	s.live += recordlog.FrameLen(payload)
	s.appendLocked(recEvent, payload, false)
}

// JobCheckpoint implements jobs.Journal. Checkpoints coalesce per job:
// within a CheckpointEvery window only the newest value is kept (the
// value is serialized lazily at flush, so a sweep checkpointing per cell
// costs one retained slice reference, not one serialization, per cell).
func (s *Store) JobCheckpoint(id string, cp any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.index[id]
	if e == nil || e.terminal || s.closed {
		return
	}
	e.pendingCp = cp
	if s.opts.CheckpointEvery > 0 && s.opts.now().Sub(e.lastCkpt) < s.opts.CheckpointEvery {
		return
	}
	s.flushCheckpointLocked(e, true)
}

// flushCheckpointLocked serializes and journals e's pending checkpoint.
func (s *Store) flushCheckpointLocked(e *jobEntry, sync bool) {
	if e.pendingCp == nil {
		return
	}
	cpJSON, err := json.Marshal(e.pendingCp)
	e.pendingCp = nil
	e.lastCkpt = s.opts.now()
	if err != nil {
		s.encodeErrors++
		return
	}
	payload, err := json.Marshal(checkpointRecord{ID: e.id, Checkpoint: cpJSON})
	if err != nil {
		s.encodeErrors++
		return
	}
	if e.ckptP != nil {
		s.live -= recordlog.FrameLen(e.ckptP)
	}
	e.ckptP = payload
	s.live += recordlog.FrameLen(payload)
	s.appendLocked(recCheckpoint, payload, sync)
}

// JobFinished implements jobs.Journal: the commit barrier. The pending
// checkpoint flushes first (unsynced — the terminal fsync right after
// covers both), then the terminal record lands with fsync.
func (s *Store) JobFinished(id string, state jobs.State, errMsg string, result any, started, finished time.Time) {
	resJSON, merr := json.Marshal(result)
	if result == nil {
		resJSON, merr = nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.index[id]
	if e == nil || e.terminal || s.closed {
		return
	}
	s.flushCheckpointLocked(e, false)
	if merr != nil {
		s.encodeErrors++
		resJSON = nil
	}
	rec := terminalRecord{ID: id, State: state, Error: errMsg, Result: resJSON, Started: started, Finished: finished}
	payload, err := json.Marshal(rec)
	if err != nil {
		s.encodeErrors++
		return
	}
	e.term = rec
	e.termP = payload
	e.terminal = true
	s.live += recordlog.FrameLen(payload)
	s.appendLocked(recTerminal, payload, true)
	s.maybeCompactLocked()
}

// JobRemoved implements jobs.Journal: the job's records become dead
// weight in the log (reclaimed by compaction) and recovery will not
// re-list it.
func (s *Store) JobRemoved(id string) {
	payload, err := json.Marshal(removeRecord{ID: id})
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.index[id]
	if e == nil || s.closed {
		return
	}
	if err != nil {
		s.encodeErrors++
		return
	}
	s.live -= recordlog.FrameLen(e.specP)
	for _, p := range e.events {
		s.live -= recordlog.FrameLen(p)
	}
	if e.ckptP != nil {
		s.live -= recordlog.FrameLen(e.ckptP)
	}
	if e.termP != nil {
		s.live -= recordlog.FrameLen(e.termP)
	}
	s.removeEntryLocked(id)
	s.appendLocked(recRemove, payload, false)
	s.maybeCompactLocked()
}

// maybeCompactLocked compacts when the log is big and mostly dead.
func (s *Store) maybeCompactLocked() {
	if s.closed || s.degraded {
		return
	}
	if s.log.Size() <= s.opts.CompactMinBytes {
		return
	}
	if float64(s.log.Size()) <= s.opts.CompactFactor*float64(s.live) {
		return
	}
	s.compactLocked()
}

// compactLocked rewrites the live records into a temp file, fsyncs it,
// and atomically renames it over the journal. On any failure the old
// journal stays in place untouched.
func (s *Store) compactLocked() error {
	// Materialize coalesced checkpoints first so the rewrite carries the
	// newest state (they go straight into the new file, not the old one).
	for _, id := range s.order {
		if e := s.index[id]; e != nil && e.pendingCp != nil {
			cpJSON, err := json.Marshal(e.pendingCp)
			e.pendingCp = nil
			e.lastCkpt = s.opts.now()
			if err != nil {
				s.encodeErrors++
				continue
			}
			payload, err := json.Marshal(checkpointRecord{ID: e.id, Checkpoint: cpJSON})
			if err != nil {
				s.encodeErrors++
				continue
			}
			if e.ckptP != nil {
				s.live -= recordlog.FrameLen(e.ckptP)
			}
			e.ckptP = payload
			s.live += recordlog.FrameLen(payload)
		}
	}
	err := s.log.Rewrite(func(put func(typ byte, payload []byte)) {
		for _, id := range s.order {
			e := s.index[id]
			if e == nil {
				continue
			}
			put(recSpec, e.specP)
			for _, p := range e.events {
				put(recEvent, p)
			}
			if e.ckptP != nil {
				put(recCheckpoint, e.ckptP)
			}
			if e.termP != nil {
				put(recTerminal, e.termP)
			}
		}
	})
	if err != nil {
		return err
	}
	s.live = s.log.Size()
	s.compactions++
	return nil
}

// Compact forces a compaction (tests and operators; the write path
// triggers it automatically via the size heuristics).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

// Sync flushes any coalesced checkpoints and fsyncs the journal.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, id := range s.order {
		if e := s.index[id]; e != nil {
			s.flushCheckpointLocked(e, false)
		}
	}
	if err := s.log.Sync(); err != nil {
		return err
	}
	s.fsyncs++
	return nil
}

// Close flushes pending state, fsyncs, and closes the journal. Close is
// idempotent; appends after it fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	for _, id := range s.order {
		if e := s.index[id]; e != nil {
			s.flushCheckpointLocked(e, false)
		}
	}
	s.closed = true
	return s.log.Close()
}

// Degraded reports whether the store is currently refusing durable
// writes after persistent failures.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Health is the store's /healthz-facing state.
type Health struct {
	// State is "ok" or "degraded".
	State string `json:"state"`
	// LastError is the failure that degraded the store.
	LastError string `json:"last_error,omitempty"`
	// RetryInMS counts down to the next write probe (0 when healthy).
	RetryInMS int64 `json:"retry_in_ms,omitempty"`
	// Dropped counts records lost to degradation since boot.
	Dropped uint64 `json:"dropped_records,omitempty"`
}

// Health snapshots the degradation state.
func (s *Store) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{State: "ok", Dropped: s.dropped}
	if s.degraded {
		h.State = "degraded"
		if s.lastErr != nil {
			h.LastError = s.lastErr.Error()
		}
		if d := s.nextRetry.Sub(s.opts.now()); d > 0 {
			h.RetryInMS = d.Milliseconds()
		}
	}
	return h
}

// Counts is the store's /stats-facing telemetry.
type Counts struct {
	State          string `json:"state"`
	Jobs           int    `json:"jobs"`
	SizeBytes      int64  `json:"size_bytes"`
	LiveBytes      int64  `json:"live_bytes"`
	Appends        uint64 `json:"appends"`
	Fsyncs         uint64 `json:"fsyncs"`
	Retries        uint64 `json:"retries"`
	DroppedRecords uint64 `json:"dropped_records"`
	EncodeErrors   uint64 `json:"encode_errors"`
	Compactions    uint64 `json:"compactions"`
	Degradations   uint64 `json:"degradations"`
	// Repaired reports a torn tail truncated at open.
	Repaired bool `json:"repaired,omitempty"`
}

// Stats snapshots the store's telemetry.
func (s *Store) Stats() Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := Counts{
		State:          "ok",
		Jobs:           len(s.index),
		SizeBytes:      s.log.Size(),
		LiveBytes:      s.live,
		Appends:        s.appends,
		Fsyncs:         s.fsyncs,
		Retries:        s.retries,
		DroppedRecords: s.dropped,
		EncodeErrors:   s.encodeErrors,
		Compactions:    s.compactions,
		Degradations:   s.degradations,
		Repaired:       s.repaired,
	}
	if s.degraded {
		c.State = "degraded"
	}
	return c
}

// Repaired reports whether Open truncated a torn tail.
func (s *Store) Repaired() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repaired
}
