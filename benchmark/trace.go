package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// A span is one timed call from the benchmark into a layer. Spans are
// recorded by the benchmark's own code around the public entry points
// (run → pass → cell/assemble/render); nothing inside the simulator is
// instrumented. Times are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: the root
	Pass   int    `json:"pass"`   // the request identifier: one per pass
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end are no-ops, so the workloads call them
// unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	pass  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// children returns the spans directly under id.
func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part its children cover.
func (t *tracer) selfTime(id int) time.Duration {
	self := t.spans[id-1].dur()
	for _, c := range t.children(id) {
		self -= c.dur()
	}
	return self
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// A meter times the units of one pass — each cell, assemble and render
// call — for the noise-floor estimate, and opens a span per unit when the
// pass is traced. Units do not nest. A nil *meter measures nothing.
type meter struct {
	tr     *tracer // nil in an untraced pass
	parent int
	units  []time.Duration
	t0     time.Time
}

func (m *meter) begin(name string) int {
	if m == nil {
		return 0
	}
	m.t0 = time.Now()
	return m.tr.begin(name, m.parent)
}

func (m *meter) end(id int) {
	if m == nil {
		return
	}
	m.units = append(m.units, time.Since(m.t0))
	m.tr.end(id)
}
