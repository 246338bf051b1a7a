package core

import (
	"errors"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
)

// TestTopoMachineAllPairs: the direct-link machines deliver every ordered
// pair exactly once, like the crossbar machine does.
func TestTopoMachineAllPairs(t *testing.T) {
	cases := []struct {
		topology string
		shape    geom.Shape
	}{
		{TopologyHyperX, geom.MustShape(3, 3)},
		{TopologyFullMesh, geom.MustShape(8)},
	}
	for _, tc := range cases {
		t.Run(tc.topology, func(t *testing.T) {
			m := mustMachine(t, Config{Shape: tc.shape, Topology: tc.topology, StallThreshold: 64})
			if m.Topology() != tc.topology {
				t.Fatalf("Topology() = %q", m.Topology())
			}
			want := 0
			tc.shape.Enumerate(func(src geom.Coord) bool {
				tc.shape.Enumerate(func(dst geom.Coord) bool {
					if src == dst {
						return true
					}
					if _, err := m.Send(src, dst, 4); err != nil {
						t.Fatalf("send %v->%v: %v", src, dst, err)
					}
					want++
					return true
				})
				return true
			})
			if out := m.Run(100_000); !out.Drained {
				t.Fatalf("outcome %+v", out)
			}
			got := map[geom.Coord]int{}
			for _, d := range m.Deliveries() {
				got[d.At]++
			}
			for c, n := range got {
				if n != tc.shape.Size()-1 {
					t.Errorf("PE %v consumed %d, want %d", c, n, tc.shape.Size()-1)
				}
			}
			if len(m.Deliveries()) != want {
				t.Errorf("delivered %d, want %d", len(m.Deliveries()), want)
			}
		})
	}
}

// TestTopoConfigRejections: the crossbar-only knobs and fault kinds are
// rejected on direct-link topologies, and vice versa, each with an error
// naming the offending knob.
func TestTopoConfigRejections(t *testing.T) {
	shape2d, mesh := geom.MustShape(4, 4), geom.MustShape(8)
	bad := []struct {
		name string
		cfg  Config
	}{
		{"unknown topology", Config{Shape: shape2d, Topology: "torus"}},
		{"sxb on hyperx", Config{Shape: shape2d, Topology: TopologyHyperX, SXB: geom.Coord{0, 1}}},
		{"dxb-separate on hyperx", Config{Shape: shape2d, Topology: TopologyHyperX, DXBSeparate: true}},
		{"naive broadcast on fullmesh", Config{Shape: mesh, Topology: TopologyFullMesh, NaiveBroadcast: true}},
		{"pivot on hyperx", Config{Shape: shape2d, Topology: TopologyHyperX, PivotLastDim: true}},
		{"fullmesh needs 1-D", Config{Shape: shape2d, Topology: TopologyFullMesh}},
	}
	for _, tc := range bad {
		if _, err := NewMachine(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	hx := mustMachine(t, Config{Shape: shape2d, Topology: TopologyHyperX, StallThreshold: 64})
	if err := hx.AddFault(fault.XBFault(geom.LineOf(geom.Coord{0, 0}, 0))); err == nil {
		t.Error("crossbar fault accepted on hyperx")
	}
	if _, _, err := hx.Broadcast(geom.Coord{0, 0}, 4); err == nil {
		t.Error("hardware broadcast accepted on hyperx")
	}
	if err := hx.UseCompiledTables(); err == nil {
		t.Error("compiled tables accepted on hyperx")
	}
	xb := mustMachine(t, Config{Shape: shape2d, StallThreshold: 64})
	if err := xb.AddFault(fault.LinkFault(geom.Coord{0, 0}, geom.Coord{1, 0})); err == nil {
		t.Error("link fault accepted on mdx")
	}
}

// TestTopoLinkFaultDetourAndRefusal: a single in-line link fault is
// detoured on HyperX; on the full mesh the detour-order rule makes traffic
// into destination 1 over a faulty link a statically predicted refusal.
func TestTopoLinkFaultDetourAndRefusal(t *testing.T) {
	hx := mustMachine(t, Config{Shape: geom.MustShape(4, 4), Topology: TopologyHyperX, StallThreshold: 64})
	if err := hx.AddFault(fault.LinkFault(geom.Coord{0, 0}, geom.Coord{3, 0})); err != nil {
		t.Fatal(err)
	}
	if _, err := hx.Send(geom.Coord{0, 0}, geom.Coord{3, 0}, 4); err != nil {
		t.Fatalf("detourable pair refused: %v", err)
	}
	if out := hx.Run(10_000); !out.Drained {
		t.Fatalf("outcome %+v", out)
	}
	if n := len(hx.Deliveries()); n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}

	fm := mustMachine(t, Config{Shape: geom.MustShape(8), Topology: TopologyFullMesh, StallThreshold: 64})
	if err := fm.AddFault(fault.LinkFault(geom.Coord{3}, geom.Coord{1})); err != nil {
		t.Fatal(err)
	}
	// Destination 1 sits at the bottom of the detour order: no admissible
	// intermediate exists, so the pair is refused, not deadlocked.
	if _, err := fm.Send(geom.Coord{3}, geom.Coord{1}, 4); !errors.Is(err, routing.ErrUnreachable) {
		t.Fatalf("3->1 over faulty link: %v, want ErrUnreachable", err)
	}
	if err := fm.Reachable(geom.Coord{3}, geom.Coord{1}); !errors.Is(err, routing.ErrUnreachable) {
		t.Fatalf("Reachable(3,1) = %v, want ErrUnreachable", err)
	}
	// Any other destination detours fine over the same fault.
	if _, err := fm.Send(geom.Coord{1}, geom.Coord{3}, 4); err != nil {
		t.Fatalf("1->3 should detour: %v", err)
	}
	if out := fm.Run(10_000); !out.Drained {
		t.Fatalf("outcome %+v", out)
	}
}

// TestTopoShardedStateHash: a sharded direct-link machine reaches the
// byte-identical engine state the serial one does.
func TestTopoShardedStateHash(t *testing.T) {
	for _, tc := range []struct {
		topology string
		shape    geom.Shape
	}{
		{TopologyHyperX, geom.MustShape(4, 4)},
		{TopologyFullMesh, geom.MustShape(12)},
	} {
		t.Run(tc.topology, func(t *testing.T) {
			run := func(shards int) uint64 {
				m := mustMachine(t, Config{Shape: tc.shape, Topology: tc.topology, StallThreshold: 64})
				if err := m.Engine().SetShards(m.PlanShards(shards)); err != nil {
					t.Fatal(err)
				}
				tc.shape.Enumerate(func(src geom.Coord) bool {
					dst := tc.shape.CoordOf((tc.shape.Index(src) + 5) % tc.shape.Size())
					if dst != src {
						if _, err := m.Send(src, dst, 4); err != nil {
							t.Fatalf("send %v->%v: %v", src, dst, err)
						}
					}
					return true
				})
				if out := m.Run(10_000); !out.Drained {
					t.Fatalf("shards=%d outcome %+v", shards, out)
				}
				return m.Engine().StateHash()
			}
			serial := run(1)
			for _, shards := range []int{2, 4} {
				if h := run(shards); h != serial {
					t.Errorf("shards=%d hash %016x != serial %016x", shards, h, serial)
				}
			}
		})
	}
}
