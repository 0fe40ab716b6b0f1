package jobstore

// The journal's records: one internal/recordlog frame per record, whose
// payload is a JSON envelope per record type. Append-only with fsync at
// commit points; recordlog repairs a torn tail on open.

import (
	"encoding/json"
	"time"

	"repro/internal/jobs"
)

// Record types. Unknown types with valid CRCs are skipped on load
// (forward compatibility), never treated as corruption.
const (
	recSpec       byte = 1 // a job was submitted
	recEvent      byte = 2 // one event appended to a job's log
	recCheckpoint byte = 3 // a job's latest resumable state
	recTerminal   byte = 4 // a job reached a terminal state
	recRemove     byte = 5 // a job left the retained ring
)

// Payload envelopes. Raw JSON stays raw (json.RawMessage) end to end, so
// a recovered job replays its journaled history byte-identically.

type specRecord struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	ResumedFrom string          `json:"resumed_from,omitempty"`
	Created     time.Time       `json:"created"`
	Spec        json.RawMessage `json:"spec,omitempty"`
}

type eventRecord struct {
	ID   string          `json:"id"`
	Seq  int             `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

type checkpointRecord struct {
	ID         string          `json:"id"`
	Checkpoint json.RawMessage `json:"checkpoint"`
}

type terminalRecord struct {
	ID       string          `json:"id"`
	State    jobs.State      `json:"state"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Started  time.Time       `json:"started,omitempty"`
	Finished time.Time       `json:"finished"`
}

type removeRecord struct {
	ID string `json:"id"`
}
