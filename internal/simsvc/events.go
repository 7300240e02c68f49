package simsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
)

// Live job event streaming over Server-Sent Events. Each tracked job
// owns an eventHub: publishers are the job's own lifecycle transitions,
// subscribers are GET /jobs/{id}/events connections. A hub publishes at
// most three events — queued (register), running (setStatus) and the
// terminal status (finishJob) — and keeps them all as its replay
// history, which every subscriber receives in full before the live
// events, so one that connects (or reconnects) after the fact still sees
// how the job got where it is; there is no resume cursor. The hub
// publishes without ever blocking — a slow consumer loses events
// (counted in simsvc_events_dropped_total), it never stalls a worker.

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

// subBuffer is each subscriber channel's capacity beyond the replayed
// history; publishes beyond a full buffer are dropped, not blocked on.
const subBuffer = 64

type eventHub struct {
	m *Metrics // drop/subscriber accounting (never nil)

	mu      sync.Mutex
	seq     int64
	history []JobEvent
	subs    map[chan JobEvent]struct{}
	closed  bool
}

func newEventHub(m *Metrics) *eventHub {
	return &eventHub{m: m, subs: map[chan JobEvent]struct{}{}}
}

// publish stamps the event and fans it out. Never blocks: a subscriber
// whose buffer is full loses this event. No-op after close.
func (h *eventHub) publish(ev JobEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	ev.Seq = h.seq
	h.history = append(h.history, ev)
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
			h.m.eventsDropped.Add(1)
		}
	}
}

// close ends the stream: every subscriber channel is closed once its
// buffered events drain, and future subscribers get history-then-EOF.
func (h *eventHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = nil
}

// subscribe returns a channel pre-loaded with the full replay history.
// On a closed hub the channel arrives already closed (after the
// replay), so the consume loop needs no special case.
func (h *eventHub) subscribe() chan JobEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch := make(chan JobEvent, len(h.history)+subBuffer)
	for _, ev := range h.history {
		ch <- ev
	}
	if h.closed {
		close(ch)
		return ch
	}
	h.subs[ch] = struct{}{}
	h.m.eventsSubs.Add(1)
	return ch
}

func (h *eventHub) unsubscribe(ch chan JobEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, live := h.subs[ch]; live {
		delete(h.subs, ch)
		h.m.eventsSubs.Add(-1)
	}
}

// streamEvents serves one hub over SSE until the stream ends (hub
// closed and drained) or the client disconnects. Events render as
//
//	id: <seq>
//	event: <type>
//	data: <JobEvent JSON>
//
// Every connection, a reconnecting one included, replays the hub's full
// history first: duplicates are safe, gaps are not.
func streamEvents(w http.ResponseWriter, r *http.Request, hub *eventHub) {
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

	ch := hub.subscribe()
	defer hub.unsubscribe(ch)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
