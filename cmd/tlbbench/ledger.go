package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one traced call into a layer: its name, the simulation it
// belongs to (-1 for none), the span that caused it (-1 for a root) and
// its interval on the run's monotonic clock, in nanoseconds.
type span struct {
	Name   string `json:"name"`
	Sim    int    `json:"sim"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory; the traced run writes them out when it
// ends. Spans nest strictly: end closes the innermost open span.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	// sim tags new spans with the simulation they belong to.
	sim int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), sim: -1} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Sim: t.sim, Parent: parent, Start: int64(time.Since(t.origin))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("tracer: span %d closed out of order", id))
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.open[:n-1]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the failure reported
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the failure reported
		return err
	}
	return f.Close()
}

// spanTotals returns each span's summed direct-child time in ns and each
// span name's summed self time in seconds: a span's duration minus the
// part of it its children cover. Children of one span never overlap,
// because spans nest strictly.
func spanTotals(spans []span) (childNS []int64, self map[string]float64) {
	childNS = make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.dur()
		}
	}
	self = make(map[string]float64)
	for i, s := range spans {
		self[s.Name] += float64(s.dur()-childNS[i]) / 1e9
	}
	return childNS, self
}
