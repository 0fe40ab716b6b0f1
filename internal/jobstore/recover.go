package jobstore

// Recovery: turning a reopened journal back into manager state. Terminal
// jobs are adopted as-is — same IDs, byte-identical event history and
// result — so a restarted daemon re-lists everything its clients knew
// about. Jobs that were in flight when the process died are first closed
// out (a terminal "interrupted" record is journaled so a second restart
// agrees), then automatically resumed from their last durable checkpoint
// through the same Manager.Resume path a client would use —
// which is exactly why the resumed run is bit-identical to an
// uninterrupted one.

import (
	"encoding/json"
	"time"

	"repro/internal/jobs"
)

// RecoveredJob is one job reconstructed from the journal (see
// Store.Snapshot).
type RecoveredJob struct {
	ID          string
	Kind        string
	ResumedFrom string
	Created     time.Time
	// Spec and Checkpoint are the journaled wire forms (null when the
	// spec was not durable / no checkpoint landed).
	Spec       json.RawMessage
	Checkpoint json.RawMessage
	// Events replays the journaled log; Data fields are raw JSON, so
	// re-serving them is byte-identical to the original stream.
	Events []jobs.Event
	// Terminal state (valid when Terminal).
	Terminal bool
	State    jobs.State
	Error    string
	Result   json.RawMessage
	Started  time.Time
	Finished time.Time
}

// Snapshot returns every journaled job in journal order.
func (s *Store) Snapshot() []RecoveredJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RecoveredJob, 0, len(s.order))
	for _, id := range s.order {
		e := s.index[id]
		if e == nil {
			continue
		}
		rj := RecoveredJob{
			ID:          e.id,
			Kind:        e.spec.Kind,
			ResumedFrom: e.spec.ResumedFrom,
			Created:     e.spec.Created,
			Spec:        e.spec.Spec,
			Terminal:    e.terminal,
		}
		if e.ckptP != nil {
			var rec checkpointRecord
			if json.Unmarshal(e.ckptP, &rec) == nil {
				rj.Checkpoint = rec.Checkpoint
			}
		}
		for _, p := range e.events {
			var rec eventRecord
			if json.Unmarshal(p, &rec) != nil {
				continue
			}
			ev := jobs.Event{Seq: rec.Seq, Kind: rec.Kind}
			if len(rec.Data) > 0 && string(rec.Data) != "null" {
				ev.Data = rec.Data
			}
			rj.Events = append(rj.Events, ev)
		}
		if e.terminal {
			rj.State = e.term.State
			rj.Error = e.term.Error
			rj.Result = e.term.Result
			rj.Started = e.term.Started
			rj.Finished = e.term.Finished
		}
		out = append(out, rj)
	}
	return out
}

// Rebuilder decodes a job kind's journaled spec and checkpoint back into
// the typed values Manager.Resume expects (jobs.RebuildSweep and
// jobs.RebuildExplore are the built-in ones). spec is never empty;
// checkpoint may be.
type Rebuilder func(spec, checkpoint []byte) (specv any, cp any, err error)

// interruptedError marks jobs that were in flight when the daemon died.
const interruptedError = "jobs: interrupted by daemon restart"

// RecoveryReport summarizes what Recover did.
type RecoveryReport struct {
	// Relisted counts terminal jobs adopted back into the manager;
	// Interrupted counts in-flight jobs closed out as failed (each also
	// Relisted-adopted, but reported separately).
	Relisted    int
	Interrupted int
	// Resumed counts interrupted jobs automatically continued from their
	// checkpoint; Skipped counts jobs that could not be adopted or
	// resumed (unknown kind, unserializable spec, rebuild failure).
	Resumed int
	Skipped int
	// Repaired reports that Open truncated a torn tail.
	Repaired bool
}

// Recover adopts every journaled job into m and auto-resumes the ones a
// crash interrupted. rebuild maps job kinds to their spec decoders;
// kinds without one (or jobs whose spec was not durable) are still
// re-listed but cannot resume. Call it once, after NewManager and before
// serving traffic, with the store already wired in as m's Journal — the
// interrupted-terminal records and resumed submissions land in the same
// journal.
func Recover(m *jobs.Manager, s *Store, rebuild map[string]Rebuilder) (RecoveryReport, error) {
	rep := RecoveryReport{Repaired: s.Repaired()}
	var resume []string
	for _, rj := range s.Snapshot() {
		var specv, cpv any
		canResume := false
		if rb := rebuild[rj.Kind]; rb != nil && len(rj.Spec) > 0 {
			if sv, cv, err := rb(rj.Spec, rj.Checkpoint); err == nil {
				specv, cpv, canResume = sv, cv, true
			}
		}
		a := jobs.AdoptedJob{
			ID:          rj.ID,
			Kind:        rj.Kind,
			ResumedFrom: rj.ResumedFrom,
			Created:     rj.Created,
			Started:     rj.Started,
			Finished:    rj.Finished,
			Events:      rj.Events,
			Spec:        specv,
			Checkpoint:  cpv,
		}
		if rj.Terminal {
			a.State = rj.State
			a.Error = rj.Error
			if len(rj.Result) > 0 {
				a.Result = rj.Result
			}
			if _, err := m.Adopt(a); err != nil {
				rep.Skipped++
				continue
			}
			rep.Relisted++
			continue
		}
		// In flight at the crash: close it out. The journaled terminal
		// record makes a second restart see a terminal job, not a
		// double-resume; the adopted job carries the interruption as its
		// error and the resumed continuation links back via resumed_from.
		now := time.Now()
		a.State = jobs.StateFailed
		a.Error = interruptedError
		ev := jobs.Event{
			Seq:  len(a.Events),
			Kind: string(jobs.StateFailed),
			Data: map[string]string{"error": interruptedError},
		}
		a.Events = append(a.Events, ev)
		a.Finished = now
		s.JobEvent(rj.ID, ev)
		s.JobFinished(rj.ID, jobs.StateFailed, interruptedError, nil, rj.Started, now)
		if _, err := m.Adopt(a); err != nil {
			rep.Skipped++
			continue
		}
		rep.Interrupted++
		if canResume {
			resume = append(resume, rj.ID)
		} else {
			rep.Skipped++
		}
	}
	// Resume after every adoption so ID bumping has seen all journaled
	// IDs (a continuation must never collide with a not-yet-adopted job).
	for _, id := range resume {
		if _, err := m.Resume(id); err != nil {
			rep.Skipped++
			continue
		}
		rep.Resumed++
	}
	return rep, nil
}
