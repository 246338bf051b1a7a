// Package mdxb builds the SR2201's multi-dimensional crossbar network on top
// of the simulation kernel, following the paper's Section 3.1 definition:
//
//   - n = n1·n2·…·nd PEs sit at the lattice points of a d-dimensional solid;
//   - every axis-aligned line of lattice points is connected by one common
//     crossbar switch (XB) — a switch providing direct connections from any
//     input port to any output port;
//   - each PE attaches to the network through a relay switch (router, RTC)
//     structured as a (d+1)×(d+1) crossbar, connecting the PE with the d
//     crossbars through its lattice point.
//
// Port conventions (the contract every routing policy relies on). With V
// virtual channels (V = 1 when the network is built without VCs), every
// router↔crossbar wire carries V lanes; each lane is a distinct engine port
// pair, and the lanes of one wire share a physical channel (one flit per
// cycle combined):
//
//	router at coordinate c:  port k·V+v (0 ≤ k < d, 0 ≤ v < V)
//	                             ↔ lane v of the dim-k crossbar through c
//	                         port d·V ↔ the PE at c
//	dim-k crossbar of line L: port p·V+v ↔ lane v of the router at L.Point(p)
//	PE at c:                  port 0 ↔ its router's port d·V
//
// At V=1 this degenerates exactly to the paper's single-channel layout:
// router port k ↔ dim-k crossbar, router port d ↔ PE, crossbar port p ↔
// router at point p, and no physical channels are created.
//
// The package is policy-agnostic: routing is delegated to a Policy installed
// with SetPolicy (implemented in internal/routing).
package mdxb

import (
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// Policy computes forwarding decisions for the two switch classes of the MD
// crossbar network. Implementations live in internal/routing.
type Policy interface {
	// RouteRouter routes a header arriving at the relay switch of the PE at
	// coord, on input port in (in < d: from the dim-in crossbar; in == d:
	// from the PE).
	RouteRouter(net *Network, coord geom.Coord, in int, h *flit.Header) (engine.Decision, error)
	// RouteXB routes a header arriving at the crossbar of line, on input
	// port in (from the router at line.Point(in)).
	RouteXB(net *Network, line geom.Line, in int, h *flit.Header) (engine.Decision, error)
}

// RouterMeta is attached to router nodes.
type RouterMeta struct {
	Coord geom.Coord
}

// XBMeta is attached to crossbar nodes.
type XBMeta struct {
	Line geom.Line
}

// PEMeta is attached to PE endpoint nodes.
type PEMeta struct {
	Coord geom.Coord
}

// Network is a fully wired multi-dimensional crossbar network.
type Network struct {
	Shape geom.Shape
	Eng   *engine.Engine

	pes     []*engine.Node   // by Shape.Index
	routers []*engine.Node   // by Shape.Index
	xbs     [][]*engine.Node // [dim][Shape.LineIndex]

	vcs    int
	policy Policy
}

// Build constructs PEs, routers and crossbars for the given shape and wires
// them per the port conventions, with a single channel per wire. A Policy
// must be installed before any packet is injected.
func Build(eng *engine.Engine, shape geom.Shape) *Network {
	return BuildVC(eng, shape, 1)
}

// BuildVC is Build with vcs virtual channels per router↔crossbar wire. The
// lanes of one wire are engine ports sharing a physical channel; PE↔router
// wires stay single-lane (injection and ejection need no escape lane).
// vcs = 1 builds the identical network Build does, physical channels
// included (none).
func BuildVC(eng *engine.Engine, shape geom.Shape, vcs int) *Network {
	if vcs < 1 {
		panic(fmt.Sprintf("mdxb: %d virtual channels (need >= 1)", vcs))
	}
	net := &Network{Shape: shape, Eng: eng, vcs: vcs}
	d := shape.Dims()

	routeRouter := func(n *engine.Node, in int, h *flit.Header) (engine.Decision, error) {
		if net.policy == nil {
			return engine.Decision{}, fmt.Errorf("mdxb: no routing policy installed")
		}
		return net.policy.RouteRouter(net, n.Meta.(RouterMeta).Coord, in, h)
	}
	routeXB := func(n *engine.Node, in int, h *flit.Header) (engine.Decision, error) {
		if net.policy == nil {
			return engine.Decision{}, fmt.Errorf("mdxb: no routing policy installed")
		}
		return net.policy.RouteXB(net, n.Meta.(XBMeta).Line, in, h)
	}

	// PEs and routers at every lattice point.
	n := shape.Size()
	net.pes = make([]*engine.Node, n)
	net.routers = make([]*engine.Node, n)
	for i := 0; i < n; i++ {
		c := shape.CoordOf(i)
		net.pes[i] = eng.AddEndpoint("PE"+c.In(d), PEMeta{Coord: c})
		net.routers[i] = eng.AddSwitch("RTC"+c.In(d), d*vcs+1, routeRouter, RouterMeta{Coord: c})
		eng.Connect(net.pes[i], 0, net.routers[i], d*vcs)
	}

	// One crossbar per line, each wire's lanes wired port-for-port to the
	// router at its point.
	net.xbs = make([][]*engine.Node, d)
	for dim := 0; dim < d; dim++ {
		lines := shape.LinesAlong(dim)
		net.xbs[dim] = make([]*engine.Node, len(lines))
		for _, l := range lines {
			xb := eng.AddSwitch(fmt.Sprintf("XB%d%s", dim, l.Fixed.In(d)), shape[dim]*vcs, routeXB, XBMeta{Line: l})
			net.xbs[dim][shape.LineIndex(l)] = xb
			for p := 0; p < shape[dim]; p++ {
				rtc := net.Router(l.Point(p))
				for v := 0; v < vcs; v++ {
					eng.Connect(xb, p*vcs+v, rtc, dim*vcs+v)
				}
				if vcs > 1 {
					eng.SharePhysical(xb.Out[p*vcs : (p+1)*vcs]...)
					eng.SharePhysical(rtc.Out[dim*vcs : (dim+1)*vcs]...)
				}
			}
		}
	}
	return net
}

// SetPolicy installs the routing policy used by every switch.
func (net *Network) SetPolicy(p Policy) { net.policy = p }

// Policy returns the installed routing policy (nil before SetPolicy).
func (net *Network) Policy() Policy { return net.policy }

// Dims reports the network dimensionality d.
func (net *Network) Dims() int { return net.Shape.Dims() }

// PE returns the endpoint node of the PE at c.
func (net *Network) PE(c geom.Coord) *engine.Node { return net.pes[net.Shape.Index(c)] }

// Router returns the relay-switch node at c.
func (net *Network) Router(c geom.Coord) *engine.Node { return net.routers[net.Shape.Index(c)] }

// XB returns the crossbar node of the given line.
func (net *Network) XB(l geom.Line) *engine.Node { return net.xbs[l.Dim][net.Shape.LineIndex(l)] }

// XBThrough returns the dim-k crossbar through coordinate c.
func (net *Network) XBThrough(c geom.Coord, dim int) *engine.Node {
	return net.XB(geom.LineOf(c, dim))
}

// PEs returns all PE endpoints in Shape.Index order.
func (net *Network) PEs() []*engine.Node { return net.pes }

// Routers returns all relay switches in Shape.Index order.
func (net *Network) Routers() []*engine.Node { return net.routers }

// XBs returns all crossbars of one dimension in LineIndex order.
func (net *Network) XBs(dim int) []*engine.Node { return net.xbs[dim] }

// VCs reports the number of virtual channels per router↔crossbar wire
// (1 for a network built without VCs).
func (net *Network) VCs() int { return net.vcs }

// RouterPortPE is the router port attached to the local PE.
func (net *Network) RouterPortPE() int { return net.Shape.Dims() * net.vcs }

// SwitchCount reports the number of switching elements (routers + crossbars),
// used by the structural-scaling experiment (E10).
func (net *Network) SwitchCount() (routers, crossbars int) {
	routers = len(net.routers)
	for _, xs := range net.xbs {
		crossbars += len(xs)
	}
	return routers, crossbars
}

// PortCount reports total switch ports (a proxy for hardware cost in E10):
// each router has d·V+1, each dim-k crossbar has shape[k]·V.
func (net *Network) PortCount() int {
	total := len(net.routers) * (net.Dims()*net.vcs + 1)
	for dim, xs := range net.xbs {
		total += len(xs) * net.Shape[dim] * net.vcs
	}
	return total
}
