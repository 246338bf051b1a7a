package main

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sr2201/internal/campaign"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
)

func TestUniformErrorRate(t *testing.T) {
	if got := uniformErrors(uniformPass{sends: 100, refused: 2, dropped: 3}); got != 5 {
		t.Errorf("refused 2 + dropped 3 counted as %d", got)
	}
	// A fault-free machine refuses and drops nothing.
	in := genUniform(3, geom.MustShape(2, 4, 4), 128)
	p, err := runUniformPass(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, c := range in.sends {
		want += len(c)
	}
	if p.sends != want || uniformErrors(p) != 0 {
		t.Errorf("sends %d (want %d), errors %d (want 0)", p.sends, want, uniformErrors(p))
	}
}

func TestUniformTracedPassReproducesUntraced(t *testing.T) {
	in := genUniform(5, geom.MustShape(2, 4, 4), 300)
	plain, err := runUniformPass(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(time.Now())
	traced, err := runUniformPass(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.out != traced.out || plain.out.Unicast == 0 {
		t.Errorf("traced output %+v, untraced %+v", traced.out, plain.out)
	}
	lt := mergeSpans(tr).totals()
	if lt.count["engine.step"] != 300 || lt.count["routing.reachable"] != traced.sends || lt.count["core.broadcast"] != 2 {
		t.Errorf("span counts %v", lt.count)
	}
}

func TestF2Failure(t *testing.T) {
	// A broadcast cut at its root (every copy missing, one drop counted).
	ok := campaign.CellResult{Accepted: 10, Delivered: 8, Drained: true, UnreachableAsPredicted: true,
		Broadcasts: 1, BroadcastCopiesExpected: 64, BroadcastCopies: 0,
		Stats: inject.Stats{LostUnreachable: 2, DropsOther: 1}}
	if why := f2Failure(ok); why != "" {
		t.Fatalf("passing cell rejected: %s", why)
	}
	// A broadcast that arrived whole.
	whole := ok
	whole.BroadcastCopies, whole.Stats.DropsOther = 64, 0
	if why := f2Failure(whole); why != "" {
		t.Fatalf("passing cell rejected: %s", why)
	}
	for _, tc := range []struct {
		name string
		mut  func(*campaign.CellResult)
	}{
		{"deadlocked", func(c *campaign.CellResult) { c.Deadlocked, c.Stalled = true, true }},
		{"livelocked", func(c *campaign.CellResult) { c.Livelocked = true }},
		{"undrained", func(c *campaign.CellResult) { c.Drained = false }},
		{"off prediction", func(c *campaign.CellResult) { c.UnreachableAsPredicted = false }},
		{"lost packet", func(c *campaign.CellResult) { c.Delivered-- }},
		{"duplicate", func(c *campaign.CellResult) { c.Stats.Duplicates = 1 }},
		{"exhausted", func(c *campaign.CellResult) { c.Stats.LostExhausted, c.Delivered = 1, 7 }},
		{"untraceable", func(c *campaign.CellResult) { c.Stats.LostUntraceable, c.Delivered = 1, 7 }},
		{"more drops than broadcasts", func(c *campaign.CellResult) { c.Stats.DropsOther = 2 }},
		{"extra broadcast copies", func(c *campaign.CellResult) { c.BroadcastCopies = 65 }},
		{"copies lost with no drop counted", func(c *campaign.CellResult) { c.BroadcastCopies, c.Stats.DropsOther = 57, 0 }},
		{"every copy lost with no drop counted", func(c *campaign.CellResult) { c.Stats.DropsOther = 0 }},
		{"drop counted with every copy delivered", func(c *campaign.CellResult) { c.BroadcastCopies = 64 }},
	} {
		c := ok
		tc.mut(&c)
		if f2Failure(c) == "" {
			t.Errorf("%s: cell accepted", tc.name)
		}
	}
}

func TestPlacementMs(t *testing.T) {
	passes := []campaignPass{{cellMs: []float64{1, 10, 5}}, {cellMs: []float64{90, 11, 5}}, {cellMs: []float64{2, 12, 5}}}
	got := placementMs(passes)
	if want := []float64{1, 10, 5}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("placement minimums %v, want %v", got, want)
	}
}

func TestServeErrorRate(t *testing.T) {
	refs := map[int][]byte{0: []byte("a"), 1: []byte("b")}
	records := []jobRecord{
		{key: 0, artifact: []byte("a")},                                  // ok
		{key: 1, artifact: []byte("b"), kind: "resubmit", deduped: true}, // ok
		{key: 1, artifact: []byte("b"), kind: "resubmit"},                // not deduped
		{key: 0, artifact: []byte("x")},                                  // wrong bytes
		{key: 0, shed: true, err: errors.New("POST /jobs: 429")},         // shed
		{key: 1, err: errors.New(`job ended "failed"`)},                  // failed
	}
	failed, first := checkRecords(records, refs)
	if failed != 4 || first == nil {
		t.Errorf("failed %d (want 4), first %v", failed, first)
	}
	if failed, first := checkRecords(records[:2], refs); failed != 0 || first != nil {
		t.Errorf("clean records: failed %d, %v", failed, first)
	}
}

func TestServeInputs(t *testing.T) {
	a, err := genServe(9, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genServe(9, 200)
	kinds := map[string]int{}
	for c, ops := range a.clients {
		fetched := map[int]bool{}
		for i, op := range ops {
			if string(op.body) != string(b.clients[c][i].body) {
				t.Fatalf("seed 9 generated different inputs at client %d op %d", c, i)
			}
			kinds[op.kind]++
			if (op.kind == "resubmit") != fetched[op.key] {
				t.Fatalf("client %d op %d: kind %s but fetched before %v", c, i, op.kind, fetched[op.key])
			}
			fetched[op.key] = true
		}
	}
	// 400 ops in blocks of 10; the first resubmission of each client turns
	// into a fault job when nothing has been fetched yet.
	if kinds["campaign"] != 40 || kinds["fault"]+kinds["resubmit"] != 360 || kinds["resubmit"] < 78 {
		t.Errorf("op mix %v, want 280/40/80 up to the first blocks", kinds)
	}
}

var sink [][]byte

func TestAllocCountsExcludeInputGeneration(t *testing.T) {
	// Allocations before startTimer and after stop are not counted.
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 64))
	}
	tm := startTimer()
	for i := 0; i < 10; i++ {
		sink = append(sink, make([]byte, 64))
	}
	ph := tm.stop()
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 64))
	}
	sink = nil
	if ph.mallocs < 10 || ph.mallocs > 200 {
		t.Errorf("timed phase counted %d allocations, want about 10", ph.mallocs)
	}

	// A pass's count does not grow with the inputs generated before it.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	in := genUniform(1, uniformShape, 64)
	runtime.ReadMemStats(&ms1)
	gen := ms1.Mallocs - ms0.Mallocs
	first, err := runUniformPass(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runUniformPass(genUniform(1, uniformShape, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	diff := int64(second.phase.mallocs) - int64(first.phase.mallocs)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(gen)/4 {
		t.Errorf("pass allocations %d vs %d differ by more than a quarter of the %d generation allocations",
			first.phase.mallocs, second.phase.mallocs, gen)
	}
}
