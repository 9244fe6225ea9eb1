package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// campaign share its index; the campaign itself is the root span.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the tracer was created
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index into the span list; -1 for a root
	Campaign int    `json:"campaign"`
}

// tracer keeps spans in memory until the run ends. The benchmark drives
// one closed loop, so spans nest strictly and a stack gives each span its
// parent. A nil *tracer records nothing: the untraced run passes nil.
type tracer struct {
	epoch    time.Time
	spans    []span
	stack    []int
	campaign int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// start opens a span under the innermost open one and returns its id.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Campaign: t.campaign})
	t.stack = append(t.stack, id)
	return id
}

// finish closes the innermost open span, which must be id.
func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// mark, cut and paste set aside the spans of a block attempt: cut removes
// the spans recorded since mark, and paste appends a cut attempt back,
// re-basing its parent links. The stack is empty between blocks.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

func (t *tracer) cut(mark int) []span {
	if t == nil {
		return nil
	}
	out := append([]span(nil), t.spans[mark:]...)
	for i := range out {
		if out[i].Parent >= 0 {
			out[i].Parent -= mark
		}
	}
	t.spans = t.spans[:mark]
	return out
}

func (t *tracer) paste(spans []span) {
	if t == nil {
		return
	}
	base := len(t.spans)
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// startCampaign opens the root span of campaign i.
func (t *tracer) startCampaign(i int) int {
	if t == nil {
		return -1
	}
	t.campaign = i
	return t.start("campaign")
}

// spanStats is the summary of one span name.
type spanStats struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"` // total minus the time its child spans cover
	ms     latencies
}

// summary folds the spans into per-name counts, total and self time, and
// keeps each name's durations for percentiles.
func (t *tracer) summary() map[string]*spanStats {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalS += float64(d) / 1e9
		st.SelfS += float64(d-child[i]) / 1e9
		st.ms.add(time.Duration(d))
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
