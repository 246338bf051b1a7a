// Package engine is a deterministic, cycle-driven, flit-level simulation
// kernel for switched interconnection networks.
//
// The kernel knows nothing about topology or routing policy: callers build a
// network out of switches (with a per-switch routing function) and endpoints
// (which inject and consume packets), connect ports with unidirectional
// links, and step the clock. The kernel implements the mechanisms the
// SR2201 paper's phenomena depend on:
//
//   - cut-through switching: the header flit claims output ports and the rest
//     of the packet streams through the opened circuit until the tail passes;
//   - credit-based flow control with finite per-input buffers, so a blocked
//     packet holds channels across switches (the wormhole-like regime in
//     which every deadlock in the paper arises);
//   - multi-port acquisition for broadcast fan-out, either incremental
//     (hold-and-wait, as in hardware and paper Fig. 5) or atomic;
//   - physical-channel multiplexing so several output ports (virtual
//     channels) can share one link's bandwidth, used by the torus baseline.
//
// Everything is iterated in fixed index order with per-resource round-robin
// arbiters, so simulations are bit-for-bit reproducible. The hot path visits
// only active elements each cycle (see scheduler.go); the active sets are
// exact predicates of each phase's no-op conditions and are kept in index
// order, so skipping idle elements cannot change any outcome. A run can
// additionally be partitioned into spatial shards that step concurrently
// under a deterministic barrier protocol (see shard.go); results are
// bit-for-bit independent of the shard count.
package engine

import (
	"cmp"
	"fmt"
	"slices"

	"sr2201/internal/flit"
)

// AcquireMode selects how a packet that needs several output ports at one
// switch (a broadcast fan-out) claims them.
type AcquireMode uint8

const (
	// AcquireAtomic grants either all requested ports or none, in order of
	// header arrival, with the ports of an older unsatisfiable request
	// reserved against younger ones (no starvation). This models the SR2201
	// crossbar, whose broadcast replay engages the whole fan simultaneously
	// ("one-by-one in order of arrival"). Hold-and-wait within one switch is
	// eliminated — but not across switches, which is where the paper's
	// deadlocks live (a fan that did start still stalls on downstream
	// credits while holding every branch).
	AcquireAtomic AcquireMode = iota
	// AcquireIncremental grants whatever requested ports are free each cycle
	// and holds them while waiting for the rest (hold-and-wait inside a
	// single switch, too). Kept as an ablation: it additionally deadlocks
	// two broadcast requests meeting at the serialized crossbar itself.
	AcquireIncremental
)

// Config collects kernel-wide parameters.
type Config struct {
	// BufferDepth is the number of flit slots in each input port buffer.
	// Depths smaller than the packet size give wormhole-like blocking.
	BufferDepth int
	// LinkDelay is the number of cycles a flit spends on a link. Minimum 1.
	LinkDelay int
	// Acquire selects fan-out acquisition semantics.
	Acquire AcquireMode
	// EjectRate caps the flits an endpoint consumes per cycle; 0 = unlimited.
	EjectRate int
	// DisableActiveSet forces the kernel to scan every link, port and
	// endpoint each cycle instead of visiting only active elements. The two
	// modes are bit-for-bit equivalent (asserted by the differential tests);
	// the full scan exists as the reference implementation and for
	// debugging, not for production runs.
	DisableActiveSet bool
}

// DefaultConfig returns the configuration used throughout the experiments:
// 2-flit buffers (well below the default 8-flit packets, i.e. wormhole-like),
// single-cycle links, atomic per-switch acquisition, unlimited ejection.
func DefaultConfig() Config {
	return Config{BufferDepth: 2, LinkDelay: 1, Acquire: AcquireAtomic}
}

func (c *Config) normalize() {
	if c.BufferDepth < 1 {
		c.BufferDepth = 1
	}
	if c.LinkDelay < 1 {
		c.LinkDelay = 1
	}
	if c.EjectRate < 0 {
		c.EjectRate = 0
	}
}

// NodeKind distinguishes switching elements from traffic endpoints.
type NodeKind uint8

const (
	// KindSwitch is a routing element (crossbar or relay switch).
	KindSwitch NodeKind = iota
	// KindEndpoint is a PE-side network interface: it injects packets and
	// consumes everything that arrives.
	KindEndpoint
)

// Decision is the result of routing one packet header at one switch input.
type Decision struct {
	// Outs lists the output ports the packet must acquire. len(Outs) > 1
	// replicates the packet (broadcast fan-out). The kernel copies the
	// slice, so routing functions may reuse its backing array.
	Outs []int
	// Transform, if non-nil, rewrites the header on the copies forwarded out
	// of this switch (RC-bit transitions). It must return a fresh header and
	// must not mutate its argument.
	Transform func(*flit.Header) *flit.Header
	// Drop discards the packet at this switch (counted, reported via OnDrop).
	Drop bool
	// DropReason annotates a drop for diagnostics.
	DropReason string
	// Provisional marks a decision that binds for one allocation round only:
	// if the single requested output is not granted this cycle, the kernel
	// discards the state and routes the header again next cycle, letting an
	// adaptive policy choose a different output. Requires len(Outs) == 1.
	// The packet's arrival stamp is preserved across re-routes, so the
	// oldest-first arbiter still serves it by its true age.
	Provisional bool
}

// RouteFunc computes the forwarding decision for a packet header arriving on
// input port in of switch n. It must be deterministic and side-effect free.
// (Sharded runs additionally rely on this: routing functions may be called
// from several goroutines at once, one per shard.) A returned error drops
// the packet and surfaces through OnDrop.
type RouteFunc func(n *Node, in int, h *flit.Header) (Decision, error)

// PortRef names one directed port of one node.
type PortRef struct {
	Node *Node
	Port int
}

func (p PortRef) String() string {
	if p.Node == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s.%d", p.Node.Name, p.Port)
}

// routeState tracks the active packet on one switch input port from header
// grant until the tail flit leaves. States are pooled per shard; the outs
// and granted slices are reused across packets.
type routeState struct {
	header    *flit.Header
	outs      []int
	granted   []bool
	nGranted  int
	transform func(*flit.Header) *flit.Header
	sink      bool // dropping: consume flits until Last without forwarding
	// since is the cycle the header was routed; atomic allocation serves
	// requests oldest-first ("in order of arrival"). A provisional re-route
	// keeps the original stamp.
	since int64
	// provisional marks a Decision.Provisional route: discarded and recomputed
	// each cycle until its single output is granted.
	provisional bool
}

func (rs *routeState) allGranted() bool { return rs.nGranted == len(rs.outs) }

// InPort is a switch or endpoint input: a FIFO flit buffer fed by one link.
// Flits are stored by value: they are copied as they move, so the steady
// state allocates nothing per hop.
type InPort struct {
	node *Node
	idx  int
	buf  []flit.Flit
	cap  int
	// upstream is the link that feeds this port (nil if unconnected); used to
	// return credits when a flit leaves the buffer.
	upstream *Link
	// route is the active cut-through state, nil when no packet is mid-flight.
	route *routeState
	// recvHeader remembers the header of the packet currently being consumed
	// by an endpoint (set when the header flit is ejected).
	recvHeader *flit.Header
	// active marks membership in the owning shard's active input-port list
	// (switch inports only); idle counts consecutive workless visits
	// (eviction hysteresis); ordKey fixes the list's iteration order to
	// match the full switch/port scan.
	active bool
	idle   uint8
	ordKey int64
	// BlockedCycles counts cycles in which this port had a routed or routable
	// packet that failed to advance.
	BlockedCycles int64
}

// front returns the flit at the head of the buffer, or nil. The pointer
// aliases the buffer slot: it must not be retained across pops or appends.
func (p *InPort) front() *flit.Flit {
	if len(p.buf) == 0 {
		return nil
	}
	return &p.buf[0]
}

// OutPort is a switch or endpoint output: the upstream end of one link, with
// the credit counter for the downstream buffer and cut-through ownership.
type OutPort struct {
	node *Node
	idx  int
	link *Link
	// owner is the input port whose packet currently holds this output, or
	// nil when the port is free.
	owner *InPort
	// credits counts free slots in the downstream input buffer.
	credits int
	// phys, when non-nil, is the shared physical channel this port sends on.
	phys *PhysChannel
	// arb is the round-robin pointer over requesting input ports.
	arb int
	// reservedCycle implements atomic allocation's anti-starvation
	// reservation without a per-cycle map: the port counts as reserved when
	// reservedCycle equals the current cycle.
	reservedCycle int64
	// pendStamp/pend gather this cycle's incremental-mode requesters without
	// a per-cycle map; pend's backing array is reused across cycles.
	pendStamp int64
	pend      []*InPort
	// BusyCycles counts cycles in which a flit crossed this port.
	BusyCycles int64
	// ConflictCycles counts allocation cycles in which two or more packets
	// requested this port simultaneously (the paper's "network conflicts").
	ConflictCycles int64
	// lastReqCycle / conflictCounted implement the per-cycle conflict count.
	lastReqCycle    int64
	conflictCounted bool
}

func (o *OutPort) creditReturn() { o.credits++ }

// Owned reports whether the port is currently held by a packet.
func (o *OutPort) Owned() bool { return o.owner != nil }

// Node is one network element: a switch with a routing function, or an
// endpoint.
type Node struct {
	ID   int
	Name string
	Kind NodeKind
	// Meta carries topology-level payload (coordinates, fault tables, ...)
	// for the routing function.
	Meta any
	// Failed marks a faulty switch: any flit arriving at it is dropped. The
	// fault-tolerant routing layer must keep traffic away from failed nodes;
	// drops here indicate a routing bug (or an intentionally unreachable
	// destination) and are reported via OnDrop.
	Failed bool

	In    []*InPort
	Out   []*OutPort
	route RouteFunc

	eng *Engine
	// shard is the index of the shard that owns this node (shard.go).
	shard int32

	// Endpoint state. The source queue is injectQ[injectHead:]; consuming
	// advances the head and the buffer is rewound once empty, so steady
	// traffic reuses one allocation instead of leaking front capacity.
	injectQ      []flit.Flit
	injectHead   int
	ejectActive  bool  // membership in the active ejection list
	injectActive bool  // membership in the active injection list
	ejectIdle    uint8 // eviction hysteresis for the ejection list
	injectIdle   uint8 // eviction hysteresis for the injection list
	Injected     int64 // packets handed to Inject
	Sent         int64 // packets whose tail left the endpoint
	Received     int64 // packets fully consumed at this endpoint
}

// InjectQueueLen reports the flits waiting in the endpoint's source queue.
func (n *Node) InjectQueueLen() int { return len(n.injectQ) - n.injectHead }

// pendingInject is the live region of the endpoint's source queue.
func (n *Node) pendingInject() []flit.Flit { return n.injectQ[n.injectHead:] }

// Link is a unidirectional flit pipeline between an output and an input port.
type Link struct {
	id    int
	from  *OutPort
	to    *InPort
	delay int
	// pipe holds in-flight flits; age counts elapsed cycles.
	pipe []linkEntry
	// active marks membership in the owning shard's active link list; idle
	// counts consecutive empty visits (eviction hysteresis, see
	// scheduler.go).
	active bool
	idle   uint8
	// shard caches the owning shard — the shard of the destination node, so
	// delivery always lands flits into shard-local buffers.
	shard int32
}

type linkEntry struct {
	f   flit.Flit
	age int
}

// PhysChannel is a group of output ports sharing one flit per cycle of
// physical bandwidth (virtual channels over one wire). All member ports must
// belong to nodes of one shard (enforced by SetShards), which keeps the
// channel arbitration shard-local.
type PhysChannel struct {
	members []*OutPort
	arb     int
	// granted is the member allowed to send, valid only when grantedCycle is
	// the current cycle (so idle channels need no per-cycle reset).
	granted      *OutPort
	grantedCycle int64
	// wantStamp/wants gather this cycle's requesting members without a
	// per-cycle map.
	wantStamp int64
	wants     []*OutPort
}

// Delivery reports one packet consumed at an endpoint.
type Delivery struct {
	At     *Node
	Header *flit.Header
	Cycle  int64
}

// Drop reports one packet discarded inside the network.
type Drop struct {
	At     *Node
	Header *flit.Header
	Cycle  int64
	Reason string
}

// Engine owns the network and the clock.
type Engine struct {
	cfg   Config
	nodes []*Node
	// switchOrder/endpointOrder cache the per-kind iteration sequences.
	switches  []*Node
	endpoints []*Node
	links     []*Link
	phys      []*PhysChannel
	nSwitchIn int // total switch input ports, for the visit counters
	// fullIn lists every switch input port in full-scan order, for the
	// DisableActiveSet reference mode and snapshot/hash walks.
	fullIn []*InPort

	cycle    int64
	moves    int64 // cumulative flit movements (link entries + ejections)
	resident int64 // flits alive in queues, buffers and links

	dropped int64

	// Sharded execution (shard.go): shards holds the built per-shard
	// scheduler/scratch state, rebuilt lazily after topology growth or
	// SetShards; shardN is the configured shard count (0 or 1 = serial);
	// direct marks the one-shard path (phases on the caller's goroutine,
	// hooks inline, outboxes empty). poolSpill preserves pooled route states
	// across shard rebuilds; the ev* slices are barrier event-flush scratch.
	shardN    int
	shards    []*engShard
	direct    bool
	poolSpill []*routeState
	evDeliver []Delivery
	evDrop    []pendingDrop
	evForward []pendingForward

	ctr Counters

	// OnDeliver, if non-nil, observes every packet consumption.
	OnDeliver func(Delivery)
	// OnDrop, if non-nil, observes every discarded packet.
	OnDrop func(Drop)
	// OnForward, if non-nil, observes every header flit leaving a node, for
	// route tracing. from is the node, out the output port index.
	OnForward func(from *Node, out int, h *flit.Header, cycle int64)
	// PreCycle, if non-nil, runs at the top of every Step, before any phase
	// and before the cycle counter advances. Dynamic-fault schedules use it
	// to mutate the network at an exact cycle (KillSwitch, retransmissions);
	// the hook must be deterministic for the reproducibility guarantee to
	// hold.
	PreCycle func(cycle int64)
	// PostCycle, if non-nil, runs at the bottom of every Step, after every
	// phase and after the cycle counter has advanced. It is the only hook
	// from which whole-network surgery (KillSwitch, KillPacket) is safe
	// *after* observing the cycle's outcome — the recovery layer uses it to
	// detect a stalled network and purge a deadlock victim between cycles.
	// Like PreCycle, the hook must be deterministic.
	PostCycle func(cycle int64)
}

// New creates an empty network with the given configuration.
func New(cfg Config) *Engine {
	cfg.normalize()
	return &Engine{cfg: cfg}
}

// Config returns the engine's (normalized) configuration.
func (e *Engine) Config() Config { return e.cfg }

// AddSwitch creates a switch with the given number of bidirectional ports and
// routing function.
func (e *Engine) AddSwitch(name string, ports int, route RouteFunc, meta any) *Node {
	if ports < 1 {
		panic(fmt.Sprintf("engine: switch %q needs at least one port", name))
	}
	if route == nil {
		panic(fmt.Sprintf("engine: switch %q needs a routing function", name))
	}
	n := &Node{ID: len(e.nodes), Name: name, Kind: KindSwitch, Meta: meta, route: route, eng: e}
	for i := 0; i < ports; i++ {
		n.In = append(n.In, &InPort{node: n, idx: i, cap: e.cfg.BufferDepth, ordKey: int64(n.ID)<<32 | int64(i)})
		n.Out = append(n.Out, &OutPort{node: n, idx: i, lastReqCycle: -1, reservedCycle: -1, pendStamp: -1})
	}
	e.nodes = append(e.nodes, n)
	e.switches = append(e.switches, n)
	e.nSwitchIn += ports
	e.fullIn = append(e.fullIn, n.In...)
	e.invalidateShards()
	return n
}

// AddEndpoint creates a single-port traffic endpoint.
func (e *Engine) AddEndpoint(name string, meta any) *Node {
	n := &Node{ID: len(e.nodes), Name: name, Kind: KindEndpoint, Meta: meta, eng: e}
	n.In = append(n.In, &InPort{node: n, idx: 0, cap: e.cfg.BufferDepth, ordKey: int64(n.ID) << 32})
	n.Out = append(n.Out, &OutPort{node: n, idx: 0, lastReqCycle: -1, reservedCycle: -1, pendStamp: -1})
	e.nodes = append(e.nodes, n)
	e.endpoints = append(e.endpoints, n)
	e.invalidateShards()
	return n
}

// Nodes returns all nodes in creation order.
func (e *Engine) Nodes() []*Node { return e.nodes }

// Endpoints returns all endpoints in creation order.
func (e *Engine) Endpoints() []*Node { return e.endpoints }

// Switches returns all switches in creation order.
func (e *Engine) Switches() []*Node { return e.switches }

// ConnectDirected wires a's output port ap to b's input port bp.
func (e *Engine) ConnectDirected(a *Node, ap int, b *Node, bp int) *Link {
	out := a.Out[ap]
	in := b.In[bp]
	if out.link != nil {
		panic(fmt.Sprintf("engine: output %s.%d already connected", a.Name, ap))
	}
	if in.upstream != nil {
		panic(fmt.Sprintf("engine: input %s.%d already connected", b.Name, bp))
	}
	l := &Link{id: len(e.links), from: out, to: in, delay: e.cfg.LinkDelay}
	out.link = l
	out.credits = in.cap
	in.upstream = l
	e.links = append(e.links, l)
	e.invalidateShards()
	return l
}

// Connect wires port ap of a to port bp of b in both directions.
func (e *Engine) Connect(a *Node, ap int, b *Node, bp int) {
	e.ConnectDirected(a, ap, b, bp)
	e.ConnectDirected(b, bp, a, ap)
}

// SharePhysical groups output ports onto one physical channel with a combined
// bandwidth of one flit per cycle.
func (e *Engine) SharePhysical(ports ...*OutPort) *PhysChannel {
	pc := &PhysChannel{members: ports, grantedCycle: -1, wantStamp: -1}
	for _, p := range ports {
		if p.phys != nil {
			panic(fmt.Sprintf("engine: output %s.%d already in a physical channel", p.node.Name, p.idx))
		}
		p.phys = pc
	}
	e.phys = append(e.phys, pc)
	e.invalidateShards()
	return pc
}

// Inject queues a packet's flits at an endpoint for transmission. The flits
// are copied into the endpoint's queue; the caller keeps ownership of the
// slice and the Flit structs.
// InjectPacket queues a size-flit packet headed by h at the endpoint. It is
// equivalent to Inject(ep, flit.NewPacket(h, size)) but builds the flits
// in place in the endpoint's source queue, allocating nothing.
func (e *Engine) InjectPacket(ep *Node, h *flit.Header, size int) {
	if ep.Kind != KindEndpoint {
		panic(fmt.Sprintf("engine: Inject on non-endpoint %q", ep.Name))
	}
	h.InjectedAt = e.cycle
	ep.injectQ = flit.AppendPacket(ep.injectQ, h, size)
	ep.Injected++
	e.resident += int64(size)
	e.activateInject(ep)
}

func (e *Engine) Inject(ep *Node, flits []*flit.Flit) {
	if ep.Kind != KindEndpoint {
		panic(fmt.Sprintf("engine: Inject on non-endpoint %q", ep.Name))
	}
	if len(flits) == 0 {
		return
	}
	if flits[0].Header == nil {
		panic("engine: first injected flit must be a header")
	}
	flits[0].Header.InjectedAt = e.cycle
	for _, f := range flits {
		ep.injectQ = append(ep.injectQ, *f)
	}
	ep.Injected++
	e.resident += int64(len(flits))
	e.activateInject(ep)
}

// Cycle reports the current simulation time.
func (e *Engine) Cycle() int64 { return e.cycle }

// Moves reports cumulative flit movements; the deadlock watchdog watches it.
func (e *Engine) Moves() int64 { return e.moves }

// Resident reports the number of flits alive anywhere in the network.
func (e *Engine) Resident() int64 { return e.resident }

// Dropped reports the number of packets discarded so far.
func (e *Engine) Dropped() int64 { return e.dropped }

// Quiescent reports whether the network holds no flits at all.
func (e *Engine) Quiescent() bool { return e.resident == 0 }

// Step advances the simulation by one cycle. Phase order (fixed): the
// PreCycle hook, then link delivery, ejection, allocation, traversal,
// injection. With more than one shard the phases run concurrently across
// shards under the barrier protocol of shard.go; the observable state after
// Step is bit-for-bit identical either way.
func (e *Engine) Step() {
	e.ensureShards()
	if e.PreCycle != nil {
		e.PreCycle(e.cycle)
		e.ensureShards()
	}
	if e.direct {
		s := e.shards[0]
		s.deliverLinks()
		s.eject()
		s.allocate()
		s.traverse()
		s.inject()
	} else {
		e.stepSharded()
	}
	e.foldShards()
	e.cycle++
	e.ctr.Cycles++
	if e.PostCycle != nil {
		e.PostCycle(e.cycle)
	}
}

// RunUntilQuiescent steps until the network drains or maxCycles elapse.
// It returns true if the network drained.
func (e *Engine) RunUntilQuiescent(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if e.Quiescent() {
			return true
		}
		e.Step()
	}
	return e.Quiescent()
}

// deliverLinks ages in-flight flits and lands the ones whose delay elapsed.
// Credits guarantee the destination buffer has room. Links are owned by
// their destination node's shard, so every landing is shard-local.
func (s *engShard) deliverLinks() {
	s.mergeLinks()
	if s.e.cfg.DisableActiveSet {
		for _, l := range s.links {
			s.deliverLink(l)
		}
		s.ctr.LinkVisits += int64(len(s.links))
		return
	}
	kept := s.activeLinks[:0]
	for _, l := range s.activeLinks {
		s.deliverLink(l)
		if len(l.pipe) > 0 {
			l.idle = 0
			kept = append(kept, l)
		} else if l.idle < idleEvictAfter {
			l.idle++
			kept = append(kept, l)
		} else {
			l.idle = 0
			l.active = false
		}
	}
	s.ctr.LinkVisits += int64(len(s.activeLinks))
	s.ctr.LinkVisitsSkipped += int64(len(s.links) - len(s.activeLinks))
	s.activeLinks = kept
}

func (s *engShard) deliverLink(l *Link) {
	if len(l.pipe) == 0 {
		return
	}
	kept := l.pipe[:0]
	landed := false
	for i := range l.pipe {
		en := l.pipe[i]
		en.age++
		if en.age >= l.delay {
			if len(l.to.buf) >= l.to.cap {
				panic(fmt.Sprintf("engine: buffer overflow at %s.%d (credit accounting bug)", l.to.node.Name, l.to.idx))
			}
			l.to.buf = append(l.to.buf, en.f)
			landed = true
		} else {
			kept = append(kept, en)
		}
	}
	l.pipe = kept
	if landed {
		if l.to.node.Kind == KindSwitch {
			s.activateAlloc(l.to)
		} else {
			s.activateEject(l.to.node)
		}
	}
}

// eject consumes arrived flits at endpoints.
func (s *engShard) eject() {
	s.mergeEject()
	if s.e.cfg.DisableActiveSet {
		for _, ep := range s.endpoints {
			s.ejectAt(ep)
		}
		s.ctr.EjectVisits += int64(len(s.endpoints))
		return
	}
	kept := s.activeEject[:0]
	for _, ep := range s.activeEject {
		s.ejectAt(ep)
		if len(ep.In[0].buf) > 0 {
			ep.ejectIdle = 0
			kept = append(kept, ep)
		} else if ep.ejectIdle < idleEvictAfter {
			ep.ejectIdle++
			kept = append(kept, ep)
		} else {
			ep.ejectIdle = 0
			ep.ejectActive = false
		}
	}
	s.ctr.EjectVisits += int64(len(s.activeEject))
	s.ctr.EjectVisitsSkipped += int64(len(s.endpoints) - len(s.activeEject))
	s.activeEject = kept
}

func (s *engShard) ejectAt(ep *Node) {
	e := s.e
	in := ep.In[0]
	budget := e.cfg.EjectRate
	for len(in.buf) > 0 {
		if budget == 0 && e.cfg.EjectRate != 0 {
			break
		}
		f := s.pop(in)
		s.moves++
		s.resident--
		if f.Header != nil {
			in.recvHeader = f.Header
		}
		if f.Last {
			ep.Received++
			s.emitDeliver(ep, in.recvHeader)
			in.recvHeader = nil
		}
		if e.cfg.EjectRate != 0 {
			budget--
		}
	}
}

// allocate routes fresh headers and arbitrates output ports. Allocation is
// node-local — requests, grants, reservations and conflict counts all live
// on the ports of the node being visited — so shards allocate independently.
func (s *engShard) allocate() {
	e := s.e
	s.mergeAlloc()
	// Gather requests. A request is an input port whose front flit is an
	// unserved header, or whose routeState still has ungranted outputs.
	requests := s.reqScratch[:0]
	if e.cfg.DisableActiveSet {
		for _, in := range s.fullIn {
			_, wants := s.allocPrep(in)
			if wants {
				requests = append(requests, in)
			}
		}
		s.ctr.SwitchPortVisits += int64(s.nSwitchIn)
	} else {
		kept := s.activeAlloc[:0]
		for _, in := range s.activeAlloc {
			live, wants := s.allocPrep(in)
			if live {
				in.idle = 0
				kept = append(kept, in)
			} else if in.idle < idleEvictAfter {
				in.idle++
				kept = append(kept, in)
			} else {
				in.idle = 0
				in.active = false
			}
			if wants {
				requests = append(requests, in)
			}
		}
		s.ctr.SwitchPortVisits += int64(len(s.activeAlloc))
		s.ctr.SwitchPortVisitsSkipped += int64(s.nSwitchIn - len(s.activeAlloc))
		s.activeAlloc = kept
	}
	s.reqScratch = requests
	if len(requests) == 0 {
		return
	}

	// Count requesters per output port for conflict statistics.
	for _, in := range requests {
		rs := in.route
		for i, o := range rs.outs {
			if rs.granted[i] {
				continue
			}
			op := in.node.Out[o]
			if op.owner != nil {
				continue
			}
			op.arbRequests(e.cycle)
		}
	}

	switch e.cfg.Acquire {
	case AcquireAtomic:
		s.allocateAtomic(requests)
	default:
		s.allocateIncremental(requests)
	}
}

// allocPrep routes the buffered header of an idle port, then reports whether
// the port remains live (holds route state or flits) and whether it competes
// for output ports this cycle.
func (s *engShard) allocPrep(in *InPort) (live, wants bool) {
	if in.route == nil {
		f := in.front()
		if f == nil {
			return false, false
		}
		if f.Header == nil {
			panic(fmt.Sprintf("engine: mid-packet flit %s at %s.%d with no route state", f, in.node.Name, in.idx))
		}
		in.route = s.routeHeader(in.node, in, f.Header)
		// Keep the active-set invariant (route state ⇒ listed) even when
		// this prep ran from a full scan, so the modes can be toggled
		// mid-run. A no-op when the port is already listed.
		s.activateAlloc(in)
	}
	rs := in.route
	if rs.provisional && rs.nGranted == 0 {
		// The provisional decision bound for one allocation round and lost.
		// Route the header again so an adaptive policy may pick a different
		// output, preserving the original arrival stamp: the oldest-first
		// arbiter keeps seeing the packet's true age, so re-routing can
		// never starve it. With no grants issued the header flit is still at
		// the front of the buffer.
		since := rs.since
		s.freeRouteState(rs)
		rs = s.routeHeader(in.node, in, in.front().Header)
		rs.since = since
		in.route = rs
	}
	return true, !rs.sink && !rs.allGranted()
}

// arbRequests bumps the conflict statistic bookkeeping; called once per
// requester per cycle. Two or more calls in one cycle mean a conflict.
func (o *OutPort) arbRequests(cycle int64) {
	if o.lastReqCycle == cycle {
		if !o.conflictCounted {
			o.ConflictCycles++
			o.conflictCounted = true
		}
		return
	}
	o.lastReqCycle = cycle
	o.conflictCounted = false
}

// allocateIncremental grants each free requested output to one requester
// (round-robin), letting fan-outs hold partial sets.
func (s *engShard) allocateIncremental(requests []*InPort) {
	// Build per-output requester lists in request order.
	order := s.outScratch[:0]
	for _, in := range requests {
		rs := in.route
		for i, o := range rs.outs {
			if rs.granted[i] {
				continue
			}
			op := in.node.Out[o]
			if op.owner != nil {
				continue
			}
			if op.pendStamp != s.e.cycle {
				op.pendStamp = s.e.cycle
				op.pend = op.pend[:0]
				order = append(order, op)
			}
			op.pend = append(op.pend, in)
		}
	}
	for _, op := range order {
		winner := op.pend[op.arb%len(op.pend)]
		op.arb++
		op.owner = winner
		rs := winner.route
		for i, o := range rs.outs {
			if winner.node.Out[o] == op {
				rs.granted[i] = true
				rs.nGranted++
			}
		}
	}
	s.outScratch = order[:0]
}

// allocateAtomic grants a request only when every output it needs is free,
// serving requests oldest-first ("in order of arrival"). The wanted ports of
// an unsatisfiable older request are reserved for the rest of the cycle so
// younger single-port traffic cannot starve a waiting fan-out.
//
// Same-cycle ties are broken by a per-switch priority rotation derived from
// the node ID: independent hardware arbiters do not share a global order, and
// a globally consistent tie-break would (unrealistically) hand one broadcast
// every crossbar at once, masking the cyclic-acquisition deadlock of paper
// Fig. 5.
//
// The sort key (since, node ID, rotated port) is a total order over all
// requests in the network, and grants touch only the request's own node, so
// sorting any node-respecting subset — a shard's — grants exactly what the
// global sort would.
func (s *engShard) allocateAtomic(requests []*InPort) {
	e := s.e
	tieKey := func(in *InPort) int {
		return (in.idx + in.node.ID) % len(in.node.In)
	}
	slices.SortStableFunc(requests, func(a, b *InPort) int {
		if a.route.since != b.route.since {
			return cmp.Compare(a.route.since, b.route.since)
		}
		if a.node != b.node {
			return cmp.Compare(a.node.ID, b.node.ID)
		}
		return cmp.Compare(tieKey(a), tieKey(b))
	})
	for _, in := range requests {
		rs := in.route
		if rs.nGranted > 0 {
			// An atomic request never holds a partial set, so this cannot
			// happen unless the mode changed mid-run.
			continue
		}
		ok := true
		for _, o := range rs.outs {
			op := in.node.Out[o]
			if op.owner != nil || op.reservedCycle == e.cycle {
				ok = false
				break
			}
		}
		if !ok {
			for _, o := range rs.outs {
				in.node.Out[o].reservedCycle = e.cycle
			}
			continue
		}
		for i, o := range rs.outs {
			in.node.Out[o].owner = in
			rs.granted[i] = true
			rs.nGranted++
		}
	}
}

// routeHeader runs the switch routing function and validates the decision,
// returning the port's new cut-through state (a sink state when the packet
// is dropped).
func (s *engShard) routeHeader(sw *Node, in *InPort, h *flit.Header) *routeState {
	if sw.Failed {
		return s.sinkPacket(sw, in, h, "arrived at failed switch")
	}
	dec, err := sw.route(sw, in.idx, h)
	if err != nil {
		return s.sinkPacket(sw, in, h, err.Error())
	}
	if dec.Drop {
		reason := dec.DropReason
		if reason == "" {
			reason = "dropped by routing function"
		}
		return s.sinkPacket(sw, in, h, reason)
	}
	if len(dec.Outs) == 0 {
		return s.sinkPacket(sw, in, h, "routing function returned no outputs")
	}
	for i, o := range dec.Outs {
		if o < 0 || o >= len(sw.Out) {
			panic(fmt.Sprintf("engine: switch %q routed to invalid port %d", sw.Name, o))
		}
		if sw.Out[o].link == nil {
			panic(fmt.Sprintf("engine: switch %q routed to unconnected port %d", sw.Name, o))
		}
		for _, prev := range dec.Outs[:i] {
			if prev == o {
				panic(fmt.Sprintf("engine: switch %q routed to duplicate port %d", sw.Name, o))
			}
		}
	}
	if dec.Provisional && len(dec.Outs) != 1 {
		panic(fmt.Sprintf("engine: switch %q returned a provisional decision with %d outputs (provisional requires exactly 1)", sw.Name, len(dec.Outs)))
	}
	rs := s.newRouteState()
	rs.header = h
	rs.outs = append(rs.outs, dec.Outs...)
	for range dec.Outs {
		rs.granted = append(rs.granted, false)
	}
	rs.transform = dec.Transform
	rs.since = s.e.cycle
	rs.provisional = dec.Provisional
	return rs
}

// sinkPacket puts the input port into drop mode for the current packet.
func (s *engShard) sinkPacket(sw *Node, in *InPort, h *flit.Header, reason string) *routeState {
	s.dropped++
	s.emitDrop(in, Drop{At: sw, Header: h, Cycle: s.e.cycle, Reason: reason})
	rs := s.newRouteState()
	rs.header = h
	rs.sink = true
	return rs
}

// newRouteState takes a state from the shard's pool (or allocates).
func (s *engShard) newRouteState() *routeState {
	if n := len(s.rsFree); n > 0 {
		rs := s.rsFree[n-1]
		s.rsFree = s.rsFree[:n-1]
		s.ctr.RouteStatesReused++
		return rs
	}
	s.ctr.RouteStatesAllocated++
	return &routeState{}
}

// freeRouteState clears a completed state and returns it to the shard pool.
func (s *engShard) freeRouteState(rs *routeState) {
	rs.header = nil
	rs.transform = nil
	rs.outs = rs.outs[:0]
	rs.granted = rs.granted[:0]
	rs.nGranted = 0
	rs.sink = false
	rs.since = 0
	rs.provisional = false
	s.rsFree = append(s.rsFree, rs)
}

// freeRouteStateAt returns rs to the pool of the shard owning nd. For the
// purge paths only — safe from single-threaded contexts (between Steps,
// PreCycle/PostCycle), never from within a phase.
func (e *Engine) freeRouteStateAt(nd *Node, rs *routeState) {
	e.ensureShards()
	e.shards[nd.shard].freeRouteState(rs)
}

// traverse moves one flit per fully-granted input across its switch. Every
// read is node-local (readiness checks the node's own credit counters,
// physical channels are shard-co-located); the writes that can cross the
// boundary — credit returns from advancing tails and pushes onto outgoing
// links — go to the shard outboxes.
func (s *engShard) traverse() {
	e := s.e
	// Phase A: find ready inputs and stage physical-channel requests.
	readies := s.readyScratch[:0]
	physOrder := s.physScratch[:0]
	ports := s.activeAlloc
	if e.cfg.DisableActiveSet {
		ports = s.fullIn
	}
	for _, in := range ports {
		rs := in.route
		if rs == nil {
			continue
		}
		f := in.front()
		if rs.sink {
			// Drain dropped packets at one flit per cycle.
			if f != nil {
				s.consumeSunk(in, *f)
			}
			continue
		}
		if !rs.allGranted() {
			if f != nil {
				in.BlockedCycles++
			}
			continue
		}
		if f == nil {
			continue // waiting for upstream flits; not "blocked" locally
		}
		ok := true
		for _, o := range rs.outs {
			op := in.node.Out[o]
			if op.credits < 1 {
				ok = false
				break
			}
		}
		if !ok {
			in.BlockedCycles++
			continue
		}
		// Stage physical channel requests.
		for _, o := range rs.outs {
			op := in.node.Out[o]
			if pc := op.phys; pc != nil {
				if pc.wantStamp != e.cycle {
					pc.wantStamp = e.cycle
					pc.wants = pc.wants[:0]
					physOrder = append(physOrder, pc)
				}
				pc.wants = append(pc.wants, op)
			}
		}
		readies = append(readies, in)
	}
	// Phase B: physical-channel arbitration, round-robin over member index.
	for _, pc := range physOrder {
		// Pick the requesting member closest after the arb pointer.
		best := -1
		bestRank := len(pc.members) + 1
		for _, op := range pc.wants {
			mi := pc.memberIndex(op)
			rank := (mi - pc.arb + len(pc.members)) % len(pc.members)
			if rank < bestRank {
				bestRank = rank
				best = mi
			}
		}
		if best >= 0 {
			pc.granted = pc.members[best]
			pc.grantedCycle = e.cycle
			pc.arb = (best + 1) % len(pc.members)
		}
	}
	// Phase C: move flits for inputs whose outputs all won their channels.
	for _, in := range readies {
		rs := in.route
		committed := true
		for _, o := range rs.outs {
			op := in.node.Out[o]
			if op.phys != nil && !op.phys.grants(op, e.cycle) {
				committed = false
				break
			}
		}
		if !committed {
			in.BlockedCycles++
			continue
		}
		f := s.pop(in)
		s.moves++
		// Fan-out duplicates flits: resident grows by branches-1.
		s.resident += int64(len(rs.outs) - 1)
		for _, o := range rs.outs {
			op := in.node.Out[o]
			branch := f
			if f.Header != nil {
				h := f.Header
				if rs.transform != nil {
					h = rs.transform(h)
				} else if len(rs.outs) > 1 {
					h = h.Clone()
				}
				branch.Header = h
				s.emitForward(in.node, o, h, in.ordKey)
			}
			s.pushLink(op.link, branch)
			op.credits--
			op.BusyCycles++
		}
		if f.Last {
			for _, o := range rs.outs {
				in.node.Out[o].owner = nil
			}
			s.freeRouteState(rs)
			in.route = nil
		}
	}
	// Credits freed by sunk drains become visible at the end of the
	// traversal phase (DESIGN.md §10), so their effect cannot depend on the
	// scan order of ports — which a shard partition does not preserve.
	for _, op := range s.sunkCredits {
		s.credit(op)
	}
	s.sunkCredits = s.sunkCredits[:0]
	s.readyScratch = readies[:0]
	s.physScratch = physOrder[:0]
}

// pushLink appends a flit to a link's pipeline: directly when the link is
// shard-local, via the outbox when its destination lives in another shard.
func (s *engShard) pushLink(l *Link, f flit.Flit) {
	if l.shard == s.idx {
		l.pipe = append(l.pipe, linkEntry{f: f})
		s.activateLink(l)
		return
	}
	s.flitOut = append(s.flitOut, flitPush{l: l, f: f})
}

// grants reports whether the channel granted this port in the given cycle.
func (pc *PhysChannel) grants(op *OutPort, cycle int64) bool {
	return pc.granted == op && pc.grantedCycle == cycle
}

// consumeSunk drains one flit of a dropped packet.
func (s *engShard) consumeSunk(in *InPort, f flit.Flit) {
	s.popSunk(in)
	s.moves++
	s.resident--
	if f.Last {
		s.freeRouteState(in.route)
		in.route = nil
	}
}

// inject moves endpoint source-queue flits onto their links.
func (s *engShard) inject() {
	s.mergeInject()
	if s.e.cfg.DisableActiveSet {
		for _, ep := range s.endpoints {
			s.injectAt(ep)
		}
		s.ctr.InjectVisits += int64(len(s.endpoints))
		return
	}
	kept := s.activeInject[:0]
	for _, ep := range s.activeInject {
		s.injectAt(ep)
		if ep.InjectQueueLen() > 0 {
			ep.injectIdle = 0
			kept = append(kept, ep)
		} else if ep.injectIdle < idleEvictAfter {
			ep.injectIdle++
			kept = append(kept, ep)
		} else {
			ep.injectIdle = 0
			ep.injectActive = false
		}
	}
	s.ctr.InjectVisits += int64(len(s.activeInject))
	s.ctr.InjectVisitsSkipped += int64(len(s.endpoints) - len(s.activeInject))
	s.activeInject = kept
}

func (s *engShard) injectAt(ep *Node) {
	e := s.e
	if ep.injectHead >= len(ep.injectQ) {
		return
	}
	out := ep.Out[0]
	if out.link == nil {
		panic(fmt.Sprintf("engine: endpoint %q has no outbound link", ep.Name))
	}
	if out.credits < 1 {
		return
	}
	if pc := out.phys; pc != nil && !pc.grants(out, e.cycle) {
		// Endpoints on shared channels arbitrate like switches; for
		// simplicity they send only on otherwise-idle cycles.
		if pc.grantedCycle == e.cycle && pc.granted != nil {
			return
		}
	}
	f := ep.injectQ[ep.injectHead]
	ep.injectHead++
	if ep.injectHead == len(ep.injectQ) {
		ep.injectQ = ep.injectQ[:0]
		ep.injectHead = 0
	}
	if f.Header != nil {
		s.emitForward(ep, 0, f.Header, int64(ep.ID))
	}
	s.pushLink(out.link, f)
	out.credits--
	out.BusyCycles++
	s.moves++
	if f.Last {
		ep.Sent++
	}
}

func (pc *PhysChannel) memberIndex(op *OutPort) int {
	for i, m := range pc.members {
		if m == op {
			return i
		}
	}
	panic("engine: output port not a member of its physical channel")
}
