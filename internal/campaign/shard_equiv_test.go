package campaign

// The campaign-level face of the sharded-vs-serial equivalence wall: every
// cell workload kind this package can express — traffic patterns, preset and
// mid-run fault schedules, retransmission, broadcasts, deadlock recovery,
// online reconfiguration, adaptive VCs, the direct-link topologies — must
// produce a per-cycle engine StateHash stream byte-identical to the serial
// run at every shard count, and a checkpoint taken under one shard count
// must restore under any other and stay on the same stream. NewMachine only
// shards the full 2048-PE machine, so these tests install a plan on the
// cell's engine themselves.

import (
	"fmt"
	"strings"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/deadlock"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/recovery"
	"sr2201/internal/sweep"
)

// setShards steps m on exactly n spatial shards; n == 0 keeps the stepper
// NewMachine chose (serial at every shape these tests build).
func setShards(t *testing.T, m *core.Machine, n int) {
	t.Helper()
	if n == 0 {
		return
	}
	if err := m.Engine().SetShards(m.PlanShards(n)); err != nil {
		t.Fatalf("SetShards(%d): %v", n, err)
	}
}

// shardedCell builds the cell with its machine stepped on n shards.
func shardedCell(t *testing.T, spec Spec, n int) *CellRun {
	t.Helper()
	c, err := NewCellRun(spec)
	if err != nil {
		t.Fatalf("NewCellRun: %v", err)
	}
	setShards(t, c.Machine(), n)
	return c
}

// runSharded is Run with every cell's machine stepped on n shards: the same
// grid, fanned through the same sweep pool and merged by cell index. n == 0
// is Run itself.
func runSharded(t *testing.T, cfg Config, n int) *Result {
	t.Helper()
	if n == 0 {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	specs, err := cellSpecs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.DoErr(len(specs), cfg.Parallel, func(i int) (CellResult, error) {
		c, err := NewCellRun(specs[i])
		if err != nil {
			return CellResult{}, err
		}
		if err := c.Machine().Engine().SetShards(c.Machine().PlanShards(n)); err != nil {
			return CellResult{}, err
		}
		for !c.Step() {
		}
		return c.Result()
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Result{Shape: cfg.Shape, Cells: cells}
}

// runSingleSharded is RunSingle with the machine stepped on n shards.
func runSingleSharded(t *testing.T, spec SingleSpec, n int) (string, deadlock.Outcome) {
	t.Helper()
	var b strings.Builder
	r, err := NewSingleRun(spec, &b)
	if err != nil {
		t.Fatal(err)
	}
	setShards(t, r.Machine(), n)
	for !r.Step() {
	}
	out, err := r.Finish()
	if err != nil {
		t.Fatalf("shards=%d: %v", n, err)
	}
	return b.String(), out
}

// shardWorkloads is the cross-kind workload matrix. Shapes stay small so the
// full matrix × shard counts runs in test time; every fault/recovery feature
// of the cell runner appears in at least one entry.
func shardWorkloads() map[string]Spec {
	return map[string]Spec{
		"shift-fault-retx": {
			Shape:   geom.MustShape(4, 4),
			Events:  []inject.Event{{Cycle: 12, Fault: fault.RouterFault(geom.Coord{1, 1})}},
			Pattern: Shift(5),
			Waves:   3,
			Gap:     16,
			Inject:  inject.Options{Retransmit: true, RetryAfter: 48, MaxRetries: 3},
		},
		"reverse-preset-bcast": {
			Shape:      geom.MustShape(4, 4),
			Pattern:    Reverse(),
			Waves:      2,
			Gap:        24,
			Preset:     []fault.Fault{fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{2}})},
			Broadcasts: []Broadcast{{Cycle: 8, Src: geom.Coord{0, 0}}, {Cycle: 40, Src: geom.Coord{3, 3}}},
		},
		"pair-3d-xbfault": {
			Shape:   geom.MustShape(3, 3, 2),
			Events:  []inject.Event{{Cycle: 20, Fault: fault.XBFault(geom.Line{Dim: 0, Fixed: geom.Coord{0, 1, 1}})}},
			Pattern: Pair(geom.Coord{0, 0, 0}, geom.Coord{2, 2, 1}, 3),
			Waves:   4,
			Gap:     12,
			Inject:  inject.Options{Retransmit: true, RetryAfter: 32},
		},
		"recovery-deadlock": {
			// The Fig. 9 deadlock-prone variant with recovery enabled: the
			// liveness layer's purge/retransmit decisions must replay
			// identically under sharding.
			Shape:       geom.MustShape(4, 4),
			Pattern:     Shift(3),
			Waves:       3,
			Gap:         8,
			DXBSeparate: true,
			DXB:         geom.Coord{0, 2},
			Events:      []inject.Event{{Cycle: 10, Fault: fault.RouterFault(geom.Coord{2, 2})}},
			Inject:      inject.Options{Retransmit: true, RetryAfter: 40},
			Recovery:    recovery.Options{Enabled: true},
			Horizon:     8_000,
		},
		"reconfig-both": {
			// Online reconfiguration: the mid-run fault recompiles the
			// tables behind a certified swap while a preset fault and a
			// broadcast keep detours and serialization in play.
			Shape:      geom.MustShape(4, 4),
			Pattern:    Shift(5),
			Waves:      4,
			Gap:        20,
			Preset:     []fault.Fault{fault.RouterFault(geom.Coord{2, 1})},
			Events:     []inject.Event{{Cycle: 30, Fault: fault.RouterFault(geom.Coord{1, 3})}},
			Broadcasts: []Broadcast{{Cycle: 10, Src: geom.Coord{3, 2}}},
			Inject:     inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
			Recovery:   recovery.Options{Enabled: true, StallThreshold: 256},
			Reconfig:   core.ReconfigBoth,
		},
		"vcs-adaptive": adaptiveContention(true),
		"hyperx-link-retx": {
			Shape:    geom.MustShape(4, 4),
			Topology: core.TopologyHyperX,
			Events:   []inject.Event{{Cycle: 10, Fault: fault.LinkFault(geom.Coord{1, 1}, geom.Coord{1, 3})}},
			Pattern:  Shift(7),
			Waves:    3,
			Gap:      16,
			Inject:   inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		},
		"fullmesh-router-retx": {
			Shape:    geom.MustShape(12),
			Topology: core.TopologyFullMesh,
			Events:   []inject.Event{{Cycle: 8, Fault: fault.RouterFault(geom.Coord{5})}},
			Pattern:  Shift(5),
			Waves:    3,
			Gap:      16,
			Inject:   inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		},
	}
}

// cellStream runs the cell on n shards to completion, recording the engine
// StateHash after every Step, and returns the stream plus the verdict.
func cellStream(t *testing.T, spec Spec, n int) ([]uint64, CellResult) {
	t.Helper()
	c := shardedCell(t, spec, n)
	var stream []uint64
	for !c.Step() {
		stream = append(stream, c.Machine().Engine().StateHash())
	}
	stream = append(stream, c.Machine().Engine().StateHash())
	res, err := c.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return stream, res
}

func TestShardEquivalenceAcrossWorkloads(t *testing.T) {
	for name, spec := range shardWorkloads() {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			serialStream, serialRes := cellStream(t, spec, 0)
			for _, shards := range []int{1, 2, 3, 4} {
				stream, res := cellStream(t, spec, shards)
				if len(stream) != len(serialStream) {
					t.Fatalf("shards=%d: %d cycles, serial ran %d", shards, len(stream), len(serialStream))
				}
				for i := range stream {
					if stream[i] != serialStream[i] {
						t.Fatalf("shards=%d: hash stream diverged at cycle %d: %#x vs %#x",
							shards, i+1, stream[i], serialStream[i])
					}
				}
				if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", serialRes) {
					t.Errorf("shards=%d: verdict diverged:\nserial:  %+v\nsharded: %+v", shards, serialRes, res)
				}
			}
		})
	}
}

func TestShardCheckpointCrossCount(t *testing.T) {
	// A checkpoint taken mid-run under one shard count restores under any
	// other and continues on the serial byte stream.
	spec := shardWorkloads()["shift-fault-retx"]
	donor := shardedCell(t, spec, 3)
	serial := shardedCell(t, spec, 0)
	for i := 0; i < 30; i++ {
		if donor.Step() || serial.Step() {
			t.Fatal("cell finished before the checkpoint point; slow the workload down")
		}
	}
	snap := donor.Snapshot()
	for _, shards := range []int{0, 2, 4} {
		restored := shardedCell(t, spec, shards)
		if err := restored.Restore(snap); err != nil {
			t.Fatalf("restore at shards=%d: %v", shards, err)
		}
		ref, err := NewCellRun(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Restore(snap); err != nil {
			t.Fatal(err)
		}
		for cycle := 0; ; cycle++ {
			da, db := ref.Step(), restored.Step()
			if ha, hb := ref.Machine().Engine().StateHash(), restored.Machine().Engine().StateHash(); ha != hb {
				t.Fatalf("shards=%d: diverged %d cycles after restore: %#x vs %#x", shards, cycle+1, ha, hb)
			}
			if da != db {
				t.Fatalf("shards=%d: termination skew %d cycles after restore", shards, cycle+1)
			}
			if da {
				break
			}
		}
	}
}

func TestSingleRunShardedBytesIdentical(t *testing.T) {
	// RunSingle's whole printed report — casualty lines, recovery events,
	// accounting table, outcome — is byte-identical at any shard count.
	base := SingleSpec{
		Shape:      geom.MustShape(4, 4),
		Events:     []inject.Event{{Cycle: 18, Fault: fault.RouterFault(geom.Coord{2, 1})}},
		Pattern:    Shift(5),
		Waves:      3,
		Gap:        16,
		Inject:     inject.Options{Retransmit: true, RetryAfter: 48},
		Recovery:   recovery.Options{Enabled: true},
		Broadcasts: []Broadcast{{Cycle: 30, Src: geom.Coord{0, 3}}},
	}
	render := func(shards int) string {
		report, _ := runSingleSharded(t, base, shards)
		return report
	}
	ref := render(0)
	for _, shards := range []int{2, 3, 4} {
		if got := render(shards); got != ref {
			t.Errorf("shards=%d report differs from serial:\n--- serial ---\n%s--- shards=%d ---\n%s", shards, ref, shards, got)
		}
	}
}

// TestHSeriesAcrossShards pins the topology experiments' workloads (H1/H2
// quick-scale campaign maps on HyperX and the full mesh, H3's face-off
// cells) across shard counts: the rendered campaign report and each cell's
// verdict, deliveries included, must not move by a byte.
func TestHSeriesAcrossShards(t *testing.T) {
	opts := inject.Options{Retransmit: true, RetryAfter: 24, StallThreshold: 256}
	maps := map[string]Config{
		"H1": {Shape: geom.MustShape(3, 3), Topology: core.TopologyHyperX, Epochs: []int64{12},
			Patterns: []Pattern{Shift(5)}, Waves: 4, Gap: 24, Inject: opts, Parallel: 2},
		"H2": {Shape: geom.MustShape(6), Topology: core.TopologyFullMesh, Epochs: []int64{12},
			Patterns: []Pattern{Shift(3)}, Waves: 4, Gap: 24, Inject: opts, Parallel: 2},
	}
	for _, id := range []string{"H1", "H2"} {
		cfg := maps[id]
		t.Run(id, func(t *testing.T) {
			serial := runSharded(t, cfg, 0).String()
			for _, shards := range []int{2, 4} {
				if got := runSharded(t, cfg, shards).String(); got != serial {
					t.Errorf("shards=%d report differs from serial:\n--- serial ---\n%s--- sharded ---\n%s", shards, serial, got)
				}
			}
		})
	}
	t.Run("H3", func(t *testing.T) {
		for _, c := range []struct {
			topology string
			shape    geom.Shape
			victim   geom.Coord
		}{
			{core.TopologyMDX, geom.MustShape(4, 4), geom.Coord{2, 1}},
			{core.TopologyHyperX, geom.MustShape(4, 4), geom.Coord{2, 1}},
			{core.TopologyFullMesh, geom.MustShape(16), geom.Coord{9}},
		} {
			spec := Spec{
				Shape:          c.shape,
				Topology:       c.topology,
				Events:         []inject.Event{{Cycle: 8, Fault: fault.RouterFault(c.victim)}},
				Pattern:        Shift(7),
				Waves:          4,
				Gap:            24,
				Inject:         inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
				KeepDeliveries: true,
			}
			_, serial := cellStream(t, spec, 0)
			for _, shards := range []int{2, 4} {
				if _, res := cellStream(t, spec, shards); fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", serial) {
					t.Errorf("%s shards=%d: verdict differs from serial:\nserial:  %+v\nsharded: %+v", c.topology, shards, serial, res)
				}
			}
		}
	})
}
