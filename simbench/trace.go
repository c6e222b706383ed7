package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced run. Spans nest workload →
// run (bench × config × pass) → {setup, simulate, build_validate}; each
// names its parent by id (0 for the root).
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced measurement runs.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, attrs map[string]string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartNS: int64(time.Since(t.t0)), Attrs: attrs})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
}

// write stores the spans with the host context and the per-layer metrics
// derived from them.
func (t *tracer) write(path string, host hostContext, layers map[string]metric) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Host    hostContext       `json:"host"`
		Metrics map[string]metric `json:"metrics"`
		Spans   []span            `json:"spans"`
	}{host, layers, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
