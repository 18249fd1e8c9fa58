package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one request share Req; Parent is the span
// that caused this one (0 at a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs and untraced phases use the same
// code.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	nextID  int64
	nextReq int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span; end closes it and returns its duration.
// Durations are measured whether or not a tracer is attached, so the
// workloads time their calls the same way in both modes.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// newReq hands out a request id (0 without a tracer).
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextReq++
	return t.nextReq
}

// begin opens a span named name under parent (0 = root) for request req.
func (t *tracer) begin(name string, parent, req int64) spanRef {
	s := spanRef{t: t, parent: parent, req: req, name: name}
	if t != nil {
		t.mu.Lock()
		t.nextID++
		s.id = t.nextID
		t.mu.Unlock()
	}
	s.start = time.Now()
	return s
}

// child opens a span under s, in s's request.
func (s spanRef) child(name string) spanRef { return s.t.begin(name, s.id, s.req) }

func (s spanRef) end() time.Duration {
	end := time.Now()
	d := end.Sub(s.start)
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, span{
			ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
			StartNs: s.start.Sub(s.t.epoch).Nanoseconds(),
			EndNs:   end.Sub(s.t.epoch).Nanoseconds(),
		})
		s.t.mu.Unlock()
	}
	return d
}

// layerSelf is one layer's aggregate over a run: how many spans, their
// total duration, and their self time — each span's duration minus the
// part of its interval that its child spans cover.
type layerSelf struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates the recorded spans by name.
func (t *tracer) selfTimes() []layerSelf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerSelf{}
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &layerSelf{Name: s.Name}
			agg[s.Name] = a
		}
		dur := s.EndNs - s.StartNs
		a.Spans++
		a.TotalMs += float64(dur) / 1e6
		a.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerSelf, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores every span and the per-layer self times as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span      `json:"spans"`
		Self  []layerSelf `json:"self"`
	}{spans, self})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
