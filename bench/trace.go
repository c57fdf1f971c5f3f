package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share OpID; Parent is the ID of the span that caused this one, 0 for
// a root. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`

	tr *tracer
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []*span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span. A child takes its parent's request identifier;
// a root takes op, or a fresh identifier when op is 0.
func (t *tracer) start(name string, parent *span, op int) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, OpID: op, tr: t}
	t.mu.Lock()
	switch {
	case parent != nil:
		s.Parent, s.OpID = parent.ID, parent.OpID
	case op == 0:
		t.ops++
		s.OpID = t.ops
	}
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.t0))
	return s
}

// end closes the span; closing it again changes nothing.
func (s *span) end() {
	if s != nil && s.End == 0 {
		s.End = int64(time.Since(s.tr.t0))
	}
}

// timed runs f inside a span and returns how long it took; with a nil
// tracer it only times f.
func (t *tracer) timed(name string, parent *span, op int, f func()) time.Duration {
	s := t.start(name, parent, op)
	start := time.Now()
	f()
	d := time.Since(start)
	s.end()
	return d
}

// check verifies the trace is well formed: every span is a root or has
// a recorded parent, and no child reaches outside its parent.
func (t *tracer) check() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(t.spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := t.spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) reaches outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// selfNs returns each span's self time: its duration minus the time
// its direct children cover. Children of one parent never overlap
// here (the harness is sequential inside a request), so the covered
// time is the sum of child durations.
func (t *tracer) selfNs() map[int]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Header map[string]string `json:"header"`
	Spans  []*span           `json:"spans"`
	// SelfNs maps a span id to its self time, precomputed so a reader
	// does not have to rebuild the tree.
	SelfNs map[int]int64 `json:"self_ns"`
}

func (t *tracer) write(path string, header map[string]string) error {
	self := t.selfNs()
	t.mu.Lock()
	data, err := json.Marshal(&traceFile{Header: header, Spans: t.spans, SelfNs: self})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
