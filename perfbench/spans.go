package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one cell share its cell id;
// parent is the index of the enclosing span (-1 for a root).
type span struct {
	name       string
	cell       string
	parent     int
	start, end time.Duration // offsets from the recorder's origin
}

// spans keeps every span of a traced run in memory; nothing is written
// until the run ends. A nil *spans records nothing, so untraced runs pay
// one nil check per call.
type spans struct {
	origin time.Time
	list   []span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (s *spans) begin(name, cell string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{name: name, cell: cell, parent: parent, start: time.Since(s.origin)})
	return len(s.list) - 1
}

// end closes span i.
func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	s.list[i].end = time.Since(s.origin)
}

// add records an already measured interval (used for cells the sweep
// runner timed itself and reported after the fact).
func (s *spans) add(name, cell string, parent int, start, end time.Time) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{name: name, cell: cell, parent: parent,
		start: start.Sub(s.origin), end: end.Sub(s.origin)})
	return len(s.list) - 1
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by its children.
// Overlapping children (concurrent cells under one pass) are merged before
// subtraction, so covered time is never counted twice.
func selfTimes(list []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, sp := range list {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, sp := range list {
		out[sp.name] += (sp.end - sp.start) - covered(list, sp, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(list []span, parent span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(list[k].start, parent.start), min(list[k].end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writePerfetto writes the spans as Chrome trace events, which Perfetto
// (ui.perfetto.dev) and chrome://tracing load directly. Spans with the same
// cell share a track, so one cell's calls nest visually.
func (s *spans) writePerfetto(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(s.list))
	for i, sp := range s.list {
		tid, ok := tids[sp.cell]
		if !ok {
			tid = len(tids) + 1
			tids[sp.cell] = tid
		}
		events = append(events, event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(sp.start.Nanoseconds()) / 1e3,
			Dur:  float64((sp.end - sp.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i, "parent": sp.parent, "cell": sp.cell},
		})
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
