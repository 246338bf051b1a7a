package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Times are nanoseconds since the tracer's origin. Spans of
// one pass, cell or job share a Group.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory. It is not safe for concurrent use: give each
// goroutine its own and merge them with mergeSpans.
type Tracer struct {
	origin time.Time
	group  string
	spans  []Span
	stack  []int // IDs of the open spans, innermost last
}

func newTracer(origin time.Time) *Tracer { return &Tracer{origin: origin} }

// SetGroup sets the group of the spans begun from now on.
func (t *Tracer) SetGroup(g string) { t.group = g }

// Begin opens a span as a child of the innermost open span and returns its
// ID for End.
func (t *Tracer) Begin(name string) int {
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Group: t.group, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) {
	t.spans[id-1].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// Dur is the length of the closed span id.
func (t *Tracer) Dur(id int) time.Duration { return t.spans[id-1].Dur() }

// Rename relabels span id, attributing it to another layer.
func (t *Tracer) Rename(id int, name string) { t.spans[id-1].Name = name }

// Record adds a finished span measured elsewhere (the serve clients'
// per-job phases, whose ends are event arrivals) as a child of the
// innermost open span.
func (t *Tracer) Record(name string, start, end time.Time) {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Group: t.group, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
}

func (t *Tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

// mergeSpans concatenates the tracers' spans, renumbering IDs so they stay
// unique and parents keep pointing at the same spans.
func mergeSpans(tracers ...*Tracer) spanSet {
	var out spanSet
	for _, t := range tracers {
		off := len(out)
		for _, s := range t.spans {
			s.ID += off
			if s.Parent != 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// spanSet is a merged span list in which span ID i sits at index i-1.
type spanSet []Span

// selfTimes gives each span's duration minus the part of its interval that
// its children cover; overlapping children are counted once and the parts
// of children outside the parent are ignored.
func (ss spanSet) selfTimes() []time.Duration {
	kids := make([][]Span, len(ss))
	for _, s := range ss {
		if s.Parent != 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], s)
		}
	}
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = selfTime(s, kids[i])
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s Span, children []Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return s.Dur() - time.Duration(covered)
}

// layerTotals folds a span set into per-name sums of self time and lists of
// whole-span durations.
type layerTotals struct {
	self  map[string]time.Duration
	durs  map[string][]float64 // milliseconds
	count map[string]int
}

func (ss spanSet) totals() layerTotals {
	lt := layerTotals{self: map[string]time.Duration{}, durs: map[string][]float64{}, count: map[string]int{}}
	self := ss.selfTimes()
	for i, s := range ss {
		lt.self[s.Name] += self[i]
		lt.durs[s.Name] = append(lt.durs[s.Name], float64(s.Dur())/float64(time.Millisecond))
		lt.count[s.Name]++
	}
	return lt
}

// selfS is the summed self time of spans named name, in seconds.
func (lt layerTotals) selfS(name string) float64 { return lt.self[name].Seconds() }

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, ss spanSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range ss {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
