package core

import (
	"runtime"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// TestStepperShardsFollowMachineSize pins the stepper decision: the full
// 2048-PE machine steps on two shards when a second processor exists, and
// every smaller machine — or any machine on one processor — steps serially.
func TestStepperShardsFollowMachineSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	full, below := geom.MustShape(8, 16, 16), geom.MustShape(8, 8, 16)
	for _, tc := range []struct {
		procs int
		shape geom.Shape
		want  int
	}{
		{2, full, 2},
		{4, full, 2},
		{1, full, 1},
		{2, below, 1},
		{2, geom.MustShape(16, 16), 1},
	} {
		runtime.GOMAXPROCS(tc.procs)
		m := mustMachine(t, Config{Shape: tc.shape})
		if got := m.Engine().ShardCount(); got != tc.want {
			t.Errorf("%v at GOMAXPROCS=%d: %d shards, want %d", tc.shape, tc.procs, got, tc.want)
		}
	}
}

// TestStepperShardsFullMachineMatchesSerial runs the automatically sharded
// 2048-PE machine against a serial twin through a broadcast and a
// half-shift wave with a dead router, comparing the engine state hash every
// cycle until both drain.
func TestStepperShardsFullMachineMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	shape := geom.MustShape(8, 16, 16)
	build := func(serial bool) *Machine {
		m := mustMachine(t, Config{Shape: shape, StallThreshold: 1024})
		if serial {
			if err := m.Engine().SetShards(m.PlanShards(1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.AddFault(fault.RouterFault(shape.CoordOf(shape.Size() / 3))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Broadcast(shape.CoordOf(0), 4); err != nil {
			t.Fatal(err)
		}
		shape.Enumerate(func(s geom.Coord) bool {
			d := shape.CoordOf((shape.Index(s) + shape.Size()/2) % shape.Size())
			if m.Alive(s) && m.Alive(d) {
				if _, err := m.Send(s, d, 4); err != nil {
					t.Fatalf("send %v->%v: %v", s, d, err)
				}
			}
			return true
		})
		return m
	}
	sharded, serial := build(false), build(true)
	if sharded.Engine().ShardCount() != 2 || serial.Engine().ShardCount() != 1 {
		t.Fatalf("shard counts %d/%d, want 2/1", sharded.Engine().ShardCount(), serial.Engine().ShardCount())
	}
	for cycle := 1; !serial.Engine().Quiescent(); cycle++ {
		if cycle > 20_000 {
			t.Fatal("serial machine did not drain")
		}
		serial.Step()
		sharded.Step()
		if a, b := serial.Engine().StateHash(), sharded.Engine().StateHash(); a != b {
			t.Fatalf("cycle %d: sharded hash %#x != serial %#x", cycle, b, a)
		}
	}
	if !sharded.Engine().Quiescent() {
		t.Error("sharded machine still busy after the serial one drained")
	}
}
