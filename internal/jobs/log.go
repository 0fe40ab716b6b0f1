package jobs

import (
	"context"
	"sync"
)

// Log is a replayable event log: Append gives each event the next Seq,
// and Events subscribers replay the retained events from a sequence
// number, then follow live ones until the terminal event. A job's log
// (limit 0) retains its whole history, so a late subscriber replays from
// Seq 0. A live stream's log retains only its newest limit events,
// because a long-running feed would otherwise grow its history without
// bound; a subscriber asking for older events starts at the oldest one
// retained.
type Log struct {
	mu       sync.Mutex
	limit    int
	events   []Event // retained tail; events[0].Seq == next-len(events)
	next     int
	terminal bool
	wake     chan struct{} // closed and replaced on every append
}

// NewLog returns an empty log retaining at most limit events (0: all).
func NewLog(limit int) *Log {
	return &Log{limit: limit, wake: make(chan struct{})}
}

// Append adds one event and wakes every subscriber; terminal marks it the
// last. commit, when non-nil, runs under the log's lock once the event
// has its Seq and before any subscriber can see it, so a journal called
// there records events in Seq order and never behind a watcher; it must
// not call back into the log. After the terminal event Append does
// nothing.
func (l *Log) Append(kind string, data any, terminal bool, commit func(Event)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.terminal {
		return
	}
	ev := Event{Seq: l.next, Kind: kind, Data: data}
	if commit != nil {
		commit(ev)
	}
	l.next++
	l.events = append(l.events, ev)
	if l.limit > 0 && len(l.events) > l.limit {
		// Reslicing drops the oldest event in O(1); append's next
		// reallocation releases the dropped prefix.
		l.events = l.events[len(l.events)-l.limit:]
	}
	l.terminal = terminal
	close(l.wake)
	l.wake = make(chan struct{})
}

// Len returns the number of events appended so far, retained or not.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Wait blocks until the terminal event is appended (returning nil) or ctx
// ends (returning the context error).
func (l *Log) Wait(ctx context.Context) error {
	for {
		l.mu.Lock()
		terminal, wake := l.terminal, l.wake
		l.mu.Unlock()
		if terminal {
			return nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Events streams every retained event with Seq >= from, then live events
// as they land. The channel closes once the terminal event has been
// delivered, or when ctx ends; the subscription goroutine exits with it
// either way, so an HTTP handler that ties ctx to its request context
// leaks nothing on client disconnect.
func (l *Log) Events(ctx context.Context, from int) <-chan Event {
	out := make(chan Event)
	go func() {
		defer close(out)
		next := max(from, 0)
		for {
			l.mu.Lock()
			first := l.next - len(l.events)
			next = max(next, first)
			var batch []Event
			if next < l.next {
				batch = append(batch, l.events[next-first:]...)
			}
			// Append adds the terminal event and sets terminal under one
			// lock hold, so a terminal snapshot always includes it.
			terminal, wake := l.terminal, l.wake
			l.mu.Unlock()
			for _, ev := range batch {
				select {
				case out <- ev:
				case <-ctx.Done():
					return
				}
			}
			next += len(batch)
			if terminal {
				return
			}
			select {
			case <-wake:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
