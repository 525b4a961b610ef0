package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans live in memory and are written out when the run ends.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root
	Name   string        `json:"name"`
	Run    string        `json:"run"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans when on; when off every call is a no-op, so the
// untraced run pays one branch per call site.
type tracer struct {
	on    bool
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, run string) *tracer {
	return &tracer{on: on, run: run, epoch: time.Now()}
}

// begin opens a span under parent and returns its id (0 when off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: t.run, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes gives each closed span's self time: its duration minus the
// part of its interval covered by the union of its children.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of [p.Start, p.End] that the children's
// intervals cover, counting overlapping children once.
func covered(p span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if !open || v.a > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = v.a, v.b, true
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// unattributed is a root span's wall time minus the self time of every
// span below it: the time no layer call accounts for. Concurrent layer
// calls can make it negative.
func unattributed(spans []span, root int) time.Duration {
	self := selfTimes(spans)
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	r, ok := byID[root]
	if !ok || r.End < 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range spans {
		if s.ID != root && s.End >= 0 && descends(byID, s.ID, root) {
			sum += self[s.ID]
		}
	}
	return r.dur() - sum
}

func descends(byID map[int]span, id, root int) bool {
	for id != 0 {
		p := byID[id].Parent
		if p == root {
			return true
		}
		id = p
	}
	return false
}
