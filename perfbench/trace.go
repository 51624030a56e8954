package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one host-time interval around a call into a public function of
// the program: what was called, when, which span caused it, and which
// replay or request it belongs to.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 for roots
	req        int           // replay or request id shared by a span tree
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs execute the same code with no span bookkeeping.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open starts a span and returns its id (-1 on a nil tracer).
func (t *tracer) open(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), end: -1, parent: parent, req: req})
	return len(t.spans) - 1
}

// close ends the span opened as id.
func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.origin)
}

// timed runs fn inside a span and returns its host duration; the duration
// is measured whether or not the tracer records.
func (t *tracer) timed(name string, parent, req int, fn func() error) (time.Duration, error) {
	id := t.open(name, parent, req)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.close(id)
	return d, err
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of one span never overlap: every call the
// benchmark wraps runs on the calling goroutine.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layerShare is, over the root spans named root, the median share of the
// root's duration that its child spans cover: 1 means the wrapped layers
// account for all of the root's wall time.
func (t *tracer) layerShare(root string) float64 {
	self := t.selfTimes()
	var shares []float64
	for i, s := range t.spans {
		if s.name == root && s.end > s.start {
			d := s.end - s.start
			shares = append(shares, float64(d-self[i])/float64(d))
		}
	}
	return median(shares)
}

// durationsMs returns the durations of the spans named name, in ms.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// chromeEvent is one Chrome trace-event ("X" complete event or "M"
// metadata), the format Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON: one host-time
// track, spans nested by interval, each carrying its id, parent, request
// id and self time, plus the environment stamp as trace metadata.
func (t *tracer) writeChrome(path, workload string, env envStamp) error {
	self := t.selfTimes()
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": "perfbench host time: " + workload},
	}}
	for i, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: "host", Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": i, "parent": s.parent, "req": s.req,
				"self_us": float64(self[i].Nanoseconds()) / 1e3,
			},
		})
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		Metadata        envStamp      `json:"metadata"`
	}{events, "ms", env}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding host-time trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing host-time trace: %w", err)
	}
	return nil
}
