package simsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Live job event streaming over Server-Sent Events. A job publishes at
// most three events — queued (register), running (setStatus) and the
// terminal status (finishJob) — by appending each to its record under
// Server.mu, in the same critical section that changes its status.
// GET /jobs/{id}/events connections read them from the record: every
// connection receives the full history first, so one that connects (or
// reconnects) after the fact still sees how the job got where it is;
// there is no resume cursor. Nothing is buffered per connection, so no
// event can be lost and a slow consumer never stalls a worker.

// JobEvent is one entry of a job's event stream.
type JobEvent struct {
	// Seq orders events within one stream; it is the SSE event id.
	Seq int64 `json:"seq"`
	// Type is "status": every event is a lifecycle transition.
	Type   string `json:"type"`
	Job    string `json:"job,omitempty"`
	Status string `json:"status,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// publishLocked appends the job's next lifecycle event and wakes the
// streams waiting for it. Requires Server.mu.
func (rec *jobRecord) publishLocked(ev JobEvent) {
	ev.Seq = int64(len(rec.events) + 1)
	ev.Type, ev.Job = "status", rec.id
	rec.events = append(rec.events, ev)
	if rec.changed != nil {
		close(rec.changed)
		rec.changed = nil
	}
}

// streamEvents serves rec's events over SSE until it has sent the
// terminal one or the client disconnects. Events render as
//
//	id: <seq>
//	event: <type>
//	data: <JobEvent JSON>
//
// Every connection, a reconnecting one included, replays the job's full
// history first: duplicates are safe, gaps are not.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, rec *jobRecord) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError,
			errors.New("event streaming needs a flushable connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	subs := &s.pool.Metrics().eventsSubs
	subs.Add(1)
	defer subs.Add(-1)
	for sent := 0; ; {
		// Events are append-only, so the ones read here stay valid after
		// the lock is released; with none new, wait for the next publish.
		s.mu.Lock()
		pending := rec.events[sent:]
		if len(pending) == 0 && rec.changed == nil {
			rec.changed = make(chan struct{})
		}
		changed := rec.changed
		s.mu.Unlock()
		if len(pending) == 0 {
			select {
			case <-changed:
				continue
			case <-r.Context().Done():
				return
			}
		}
		for _, ev := range pending {
			data, _ := json.Marshal(ev) // cannot fail: ints, strings and a bool
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return
			}
		}
		fl.Flush()
		if finishedStatus(pending[len(pending)-1].Status) {
			return
		}
		sent += len(pending)
	}
}
