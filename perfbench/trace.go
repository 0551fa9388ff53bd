package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one bench-side interval around a call into a layer. Spans of
// one request share its request ID; Parent is the enclosing span's ID
// (0 for a root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	ReqID  string    `json:"request_id,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(parent int, name, reqID string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, ReqID: reqID, Start: start, End: end})
	return id
}

// end closes a span opened with its end unknown.
func (t *tracer) end(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = at
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(parent int, name, reqID string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(parent, name, reqID, start, end)
	return end.Sub(start)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
