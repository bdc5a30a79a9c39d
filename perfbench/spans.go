package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the public entry point it drives. Spans of one request share Trace;
// Parent is the ID of the span that caused this one (0 for a root).
type Span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op returning span ID 0, so the
// measured code paths are identical with tracing on and off apart from
// the recording itself.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// add records a finished span and returns its ID.
func (r *recorder) add(trace, name string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{
		ID:      id,
		Parent:  parent,
		Trace:   trace,
		Name:    name,
		StartNS: start.Sub(r.epoch).Nanoseconds(),
		EndNS:   end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// reserve allocates the ID of a parent span whose extent is only known
// after its children finish; fill completes it.
func (r *recorder) reserve(trace, name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: int64(len(r.spans) + 1), Trace: trace, Name: name})
	return int64(len(r.spans))
}

func (r *recorder) fill(id int64, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].StartNS = start.Sub(r.epoch).Nanoseconds()
	r.spans[id-1].EndNS = end.Sub(r.epoch).Nanoseconds()
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(trace, name string, parent int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(trace, name, parent, start, end)
	return end.Sub(start)
}

// write stores every recorded span as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"epoch": r.epoch.Format(time.RFC3339Nano), "spans": r.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
