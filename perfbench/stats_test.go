package main

import (
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median has 9 samples beyond it
		{20, 50, true},
		{99, 50, true}, // p90 is rank 90: 9 beyond
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{1e6, 99.9, true}, // the ladder stops at p99.9
	} {
		got, ok := supportedPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("supportedPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(tc.n, got) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, got, tc.n-rank(tc.n, got))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Errorf("p90 = %g, want 5", got)
	}
	if got := percentile(xs, 20); got != 1 {
		t.Errorf("p20 = %g, want 1", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if median(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("empty sample should read 0")
	}
}

func span(id, parent int, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children []Span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []Span{span(2, 1, 10, 20), span(3, 1, 40, 70)}, 60},
		{"nested overlap counted once", []Span{span(2, 1, 10, 60), span(3, 1, 20, 30)}, 50},
		{"partial overlap", []Span{span(2, 1, 10, 30), span(3, 1, 20, 50)}, 60},
		{"touching", []Span{span(2, 1, 10, 20), span(3, 1, 20, 30)}, 80},
		{"clipped to the parent", []Span{span(2, 1, -20, 10), span(3, 1, 90, 150)}, 80},
		{"outside the parent", []Span{span(2, 1, 200, 300)}, 100},
		{"covering the parent", []Span{span(2, 1, -5, 105)}, 0},
	} {
		if got := selfTime(span(1, 0, 0, 100), tc.children); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSpanSetSelfTimesUseDirectChildrenOnly(t *testing.T) {
	// root [0,100] > child [10,60] > grandchild [20,40]; a second root-level
	// child [50,80] overlaps the first.
	ss := spanSet{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "grandchild", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "child", Start: 50, End: 80},
	}
	self := ss.selfTimes()
	want := []time.Duration{30, 30, 20, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i+1, self[i], want[i])
		}
	}
	lt := ss.totals()
	if lt.self["child"] != 60 || lt.count["child"] != 2 {
		t.Errorf("child totals = %d over %d spans, want 60 over 2", lt.self["child"], lt.count["child"])
	}
}

func TestTracerNestingAndMerge(t *testing.T) {
	origin := time.Now()
	a := newTracer(origin)
	a.SetGroup("cell-0")
	outer := a.Begin("outer")
	inner := a.Begin("inner")
	a.End(inner)
	a.Record("derived", origin, origin.Add(time.Millisecond))
	a.End(outer)
	a.Rename(inner, "renamed")
	b := newTracer(origin)
	b.End(b.Begin("other"))

	ss := mergeSpans(a, b)
	if len(ss) != 4 {
		t.Fatalf("merged %d spans, want 4", len(ss))
	}
	for i, s := range ss {
		if s.ID != i+1 {
			t.Errorf("span %d has ID %d", i, s.ID)
		}
	}
	if ss[1].Parent != 1 || ss[1].Name != "renamed" || ss[2].Parent != 1 || ss[3].Parent != 0 {
		t.Errorf("parents/names wrong: %+v", ss)
	}
	if ss[0].Group != "cell-0" || ss[0].End < ss[1].End {
		t.Errorf("outer span %+v should enclose inner %+v", ss[0], ss[1])
	}
}
