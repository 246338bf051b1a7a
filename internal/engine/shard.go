package engine

// Sharded execution: the node set is partitioned into shards that step the
// five simulation phases concurrently under a deterministic barrier protocol
// (DESIGN.md §10). Every shard owns a subset of the nodes; a link belongs to
// the shard of its *destination* node (so link delivery always lands flits
// into shard-local buffers), and all members of a physical channel must live
// in one shard (channel arbitration is then shard-local too). Allocation and
// traversal only ever touch ports of the node being visited, so with those
// two ownership rules the only state one shard touches on behalf of another
// is
//
//   - a credit return to an upstream output port (a flit left a buffer whose
//     feeding link crosses the boundary), and
//   - a flit push onto a boundary link's pipeline.
//
// Both are double-buffered: during a parallel section each shard appends
// them to private outboxes, and the engine applies the outboxes
// single-threaded at the next barrier. The barrier placement reproduces the
// serial engine's intra-cycle visibility exactly — see stepSharded — so the
// per-cycle StateHash stream is byte-identical to a serial run for any shard
// count, any node assignment and any goroutine schedule (asserted by the
// shard equivalence tests). Hook events (OnDeliver, OnDrop, OnForward) are
// buffered per shard during parallel sections and replayed single-threaded
// at the barriers in the serial engine's emission order.
//
// A one-shard engine (the default) runs the phases directly on the caller's
// goroutine with hooks firing inline; outboxes stay empty because nothing
// crosses a boundary. Serial execution is therefore the same code path, not
// a separate implementation kept in sync by hand.

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"sr2201/internal/flit"
)

// ShardPlan assigns every node of an engine to one of N shards.
type ShardPlan struct {
	// N is the number of shards.
	N int
	// Assign maps node ID to shard index; its length must equal the number
	// of nodes in the engine. A nil Assign is valid only with N == 1 (every
	// node in shard 0).
	Assign []int
}

// engShard is the per-shard execution state: the owned element subsets (each
// kept in full-scan order), the shard-local scheduler lists and scratch
// buffers, per-cycle counter deltas folded into the engine at the end of each
// Step, and the cross-shard outboxes.
type engShard struct {
	e   *Engine
	idx int32

	// Owned elements, in full-scan (creation/ordKey) order.
	links     []*Link
	fullIn    []*InPort
	endpoints []*Node
	phys      []*PhysChannel
	nSwitchIn int

	// Active sets and pending buffers (scheduler.go), restricted to the
	// shard's elements.
	activeLinks  []*Link
	activeAlloc  []*InPort
	activeEject  []*Node
	activeInject []*Node
	pendLinks    []*Link
	pendAlloc    []*InPort
	pendEject    []*Node
	pendInject   []*Node

	// Scratch slices reused across cycles.
	reqScratch   []*InPort
	readyScratch []*InPort
	outScratch   []*OutPort
	physScratch  []*PhysChannel
	rsFree       []*routeState

	// Per-cycle deltas, folded into the engine's fields at the end of Step.
	moves    int64
	resident int64
	dropped  int64
	ctr      Counters

	// Cross-shard outboxes, applied single-threaded at barriers.
	creditOut []*OutPort // remote credit returns
	flitOut   []flitPush // pushes onto remote links
	// sunkCredits defers the credits freed by draining dropped packets to
	// the end of the traversal phase (DESIGN.md §10: the one intra-cycle
	// visibility point the kernel defines at a barrier instead of mid-scan,
	// so that it cannot depend on port scan order across shards).
	sunkCredits []*OutPort

	// Buffered hook events (multi-shard mode only).
	delivers []Delivery
	drops    []pendingDrop
	forwards []pendingForward
}

type flitPush struct {
	l *Link
	f flit.Flit
}

type pendingDrop struct {
	d   Drop
	key int64 // ordKey of the input port that dropped, the serial scan position
}

type pendingForward struct {
	from *Node
	out  int
	h    *flit.Header
	key  int64 // ordKey (switch ports) or node ID (endpoints)
}

// SetShards partitions the engine's nodes per the plan and rebuilds the
// shard execution state. It validates that the plan covers every node and
// that no physical channel spans two shards, and leaves the engine unchanged
// on error. Call between Steps only. The partition is pure execution
// strategy: simulation results are bit-for-bit independent of it, and it is
// deliberately excluded from snapshots and the topology fingerprint, so a
// checkpoint taken at one shard count restores at any other.
//
// Topology may still be grown afterwards (AddSwitch, Connect, ...): new
// nodes join shard 0. Creating a physical channel across two shards after
// SetShards is a misuse and panics at the next Step.
func (e *Engine) SetShards(p ShardPlan) error {
	if p.N < 1 {
		return fmt.Errorf("engine: shard count %d < 1", p.N)
	}
	if p.Assign == nil && p.N != 1 {
		return fmt.Errorf("engine: %d shards require an explicit assignment", p.N)
	}
	if p.Assign != nil && len(p.Assign) != len(e.nodes) {
		return fmt.Errorf("engine: shard assignment covers %d nodes, network has %d", len(p.Assign), len(e.nodes))
	}
	for id, s := range p.Assign {
		if s < 0 || s >= p.N {
			return fmt.Errorf("engine: node %d assigned to shard %d outside [0,%d)", id, s, p.N)
		}
	}
	for _, pc := range e.phys {
		want := pc.shardOf(p)
		for _, m := range pc.members[1:] {
			if pc.shardOf1(p, m) != want {
				return fmt.Errorf("engine: physical channel of %s.%d spans shards %d and %d",
					pc.members[0].node.Name, pc.members[0].idx, want, pc.shardOf1(p, m))
			}
		}
	}
	for id, nd := range e.nodes {
		if p.Assign == nil {
			nd.shard = 0
		} else {
			nd.shard = int32(p.Assign[id])
		}
	}
	e.shardN = p.N
	e.invalidateShards()
	e.ensureShards()
	return nil
}

func (pc *PhysChannel) shardOf(p ShardPlan) int { return pc.shardOf1(p, pc.members[0]) }

func (pc *PhysChannel) shardOf1(p ShardPlan, m *OutPort) int {
	if p.Assign == nil {
		return 0
	}
	return p.Assign[m.node.ID]
}

// PlanShards builds a generic weight-balanced plan: nodes in creation order
// are split into n contiguous blocks weighted by port count, with all
// members of a physical channel forced into the block of the earliest
// member. Topology builders with spatial knowledge (mdxb.ShardAssign) can do
// better; this planner only needs the engine.
func (e *Engine) PlanShards(n int) ShardPlan {
	if n < 1 {
		n = 1
	}
	if len(e.nodes) > 0 && n > len(e.nodes) {
		n = len(e.nodes)
	}
	assign := make([]int, len(e.nodes))
	if n == 1 {
		return ShardPlan{N: 1, Assign: assign}
	}
	// Union-find over nodes joined by shared physical channels.
	parent := make([]int, len(e.nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for _, pc := range e.phys {
		r := find(pc.members[0].node.ID)
		for _, m := range pc.members[1:] {
			parent[find(m.node.ID)] = r
		}
	}
	var total int64
	weight := func(nd *Node) int64 { return int64(len(nd.In) + len(nd.Out)) }
	for _, nd := range e.nodes {
		total += weight(nd)
	}
	for i := range assign {
		assign[i] = -1
	}
	var cum int64
	s := 0
	for i, nd := range e.nodes {
		for s+1 < n && cum*int64(n) >= total*int64(s+1) {
			s++
		}
		root := find(i)
		if assign[root] < 0 {
			assign[root] = s
		}
		assign[i] = assign[root]
		cum += weight(nd)
	}
	return ShardPlan{N: n, Assign: assign}
}

// ShardCount reports the configured number of shards (1 before SetShards).
func (e *Engine) ShardCount() int {
	if e.shardN < 1 {
		return 1
	}
	return e.shardN
}

// BoundaryLinks counts links whose endpoints live in different shards — the
// traffic that crosses the barrier outboxes each cycle.
func (e *Engine) BoundaryLinks() int {
	b := 0
	for _, l := range e.links {
		if l.from.node.shard != l.to.node.shard {
			b++
		}
	}
	return b
}

// invalidateShards discards the built shard structure (topology changed or a
// new plan was installed), spilling pooled route states so the next build
// keeps them. The per-element active flags are the authoritative scheduler
// state, so a rebuild between Steps is always safe.
func (e *Engine) invalidateShards() {
	if e.shards == nil {
		return
	}
	for _, s := range e.shards {
		e.poolSpill = append(e.poolSpill, s.rsFree...)
	}
	e.shards = nil
}

func (e *Engine) ensureShards() {
	if e.shards == nil {
		e.buildShards()
	}
}

func (e *Engine) buildShards() {
	n := e.shardN
	if n < 1 {
		n = 1
	}
	shards := make([]*engShard, n)
	for i := range shards {
		shards[i] = &engShard{e: e, idx: int32(i)}
	}
	for _, nd := range e.nodes {
		if int(nd.shard) >= n {
			panic(fmt.Sprintf("engine: node %q assigned to shard %d of %d (topology mutated after SetShards?)", nd.Name, nd.shard, n))
		}
		s := shards[nd.shard]
		if nd.Kind == KindEndpoint {
			s.endpoints = append(s.endpoints, nd)
		} else {
			s.fullIn = append(s.fullIn, nd.In...)
			s.nSwitchIn += len(nd.In)
		}
	}
	for _, l := range e.links {
		l.shard = l.to.node.shard
		shards[l.shard].links = append(shards[l.shard].links, l)
	}
	for _, pc := range e.phys {
		sh := pc.members[0].node.shard
		for _, m := range pc.members[1:] {
			if m.node.shard != sh {
				panic(fmt.Sprintf("engine: physical channel of %s.%d spans shards %d and %d (SharePhysical after SetShards?)",
					pc.members[0].node.Name, pc.members[0].idx, sh, m.node.shard))
			}
		}
		shards[sh].phys = append(shards[sh].phys, pc)
	}
	shards[0].rsFree = append(shards[0].rsFree, e.poolSpill...)
	e.poolSpill = e.poolSpill[:0]
	e.shards = shards
	e.direct = n == 1
	for _, s := range shards {
		s.rebuildActive()
	}
}

// rebuildActive reconstitutes the shard's active lists from the per-element
// flags. Every owned-element slice is in full-scan order, so the rebuilt
// lists are sorted by construction; pending buffers restart empty.
func (s *engShard) rebuildActive() {
	s.activeLinks = s.activeLinks[:0]
	for _, l := range s.links {
		if l.active {
			s.activeLinks = append(s.activeLinks, l)
		}
	}
	s.activeAlloc = s.activeAlloc[:0]
	for _, in := range s.fullIn {
		if in.active {
			s.activeAlloc = append(s.activeAlloc, in)
		}
	}
	s.activeEject = s.activeEject[:0]
	s.activeInject = s.activeInject[:0]
	for _, ep := range s.endpoints {
		if ep.ejectActive {
			s.activeEject = append(s.activeEject, ep)
		}
		if ep.injectActive {
			s.activeInject = append(s.activeInject, ep)
		}
	}
	s.pendLinks = s.pendLinks[:0]
	s.pendAlloc = s.pendAlloc[:0]
	s.pendEject = s.pendEject[:0]
	s.pendInject = s.pendInject[:0]
}

// poolFreeLen reports the total pooled route states across all shards (the
// snapshot encodes the pool as a single count).
func (e *Engine) poolFreeLen() int {
	n := len(e.poolSpill)
	for _, s := range e.shards {
		n += len(s.rsFree)
	}
	return n
}

// resetPool empties every shard's route-state pool and refills shard 0 with
// n fresh states (snapshot restore; the states' identities are immaterial).
func (e *Engine) resetPool(n int) {
	e.ensureShards()
	for _, s := range e.shards {
		s.rsFree = s.rsFree[:0]
	}
	e.poolSpill = e.poolSpill[:0]
	s0 := e.shards[0]
	for i := 0; i < n; i++ {
		s0.rsFree = append(s0.rsFree, &routeState{})
	}
}

// stepSharded runs one cycle's phases across all shards. The barrier
// placement mirrors the serial engine's intra-cycle visibility:
//
//	section 1 (parallel): deliver, eject, allocate — no shard reads another's
//	    credits (allocation never reads credits at all), so eject's
//	    cross-boundary credit returns wait in the outbox;
//	barrier: apply eject credits (serial makes them visible to traversal),
//	    replay OnDeliver then OnDrop in serial scan order;
//	section 2 (parallel): traverse — readiness reads only the local node's
//	    credits; cross-boundary returns from advancing tails go to the outbox;
//	barrier: apply traverse credits (serial makes them visible to injection),
//	    replay traversal OnForward;
//	section 3 (parallel): inject;
//	final: apply boundary flit pushes (nothing reads a link pipe after
//	    delivery, so pushes from sections 2 and 3 land here), replay
//	    injection OnForward.
func (e *Engine) stepSharded() {
	e.runShards(func(s *engShard) {
		s.deliverLinks()
		s.eject()
		s.allocate()
	})
	e.applyCredits()
	e.flushDelivers()
	e.flushDrops()
	e.runShards(func(s *engShard) { s.traverse() })
	e.applyCredits()
	e.flushForwards()
	e.runShards(func(s *engShard) { s.inject() })
	e.applyFlits()
	e.flushForwards()
}

// runShards executes fn on every shard concurrently: shard 0 on the calling
// goroutine, the rest on fresh goroutines, with a full join before
// returning. A panic on any shard is re-raised on the caller after the join.
func (e *Engine) runShards(fn func(*engShard)) {
	n := len(e.shards)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	panics := make([]any, n)
	for i := 1; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			fn(e.shards[i])
		}(i)
	}
	func() {
		defer func() { panics[0] = recover() }()
		fn(e.shards[0])
	}()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// foldShards folds every shard's per-cycle deltas into the engine fields.
// After the fold (i.e. whenever the engine is observable between Steps) the
// engine-level counters are exact, whatever the shard count.
func (e *Engine) foldShards() {
	for _, s := range e.shards {
		e.moves += s.moves
		e.resident += s.resident
		e.dropped += s.dropped
		s.moves, s.resident, s.dropped = 0, 0, 0
		e.ctr.LinkVisits += s.ctr.LinkVisits
		e.ctr.LinkVisitsSkipped += s.ctr.LinkVisitsSkipped
		e.ctr.SwitchPortVisits += s.ctr.SwitchPortVisits
		e.ctr.SwitchPortVisitsSkipped += s.ctr.SwitchPortVisitsSkipped
		e.ctr.EjectVisits += s.ctr.EjectVisits
		e.ctr.EjectVisitsSkipped += s.ctr.EjectVisitsSkipped
		e.ctr.InjectVisits += s.ctr.InjectVisits
		e.ctr.InjectVisitsSkipped += s.ctr.InjectVisitsSkipped
		e.ctr.RouteStatesAllocated += s.ctr.RouteStatesAllocated
		e.ctr.RouteStatesReused += s.ctr.RouteStatesReused
		s.ctr = Counters{}
	}
}

// pop removes the front flit of an input port owned by this shard, returning
// the freed buffer slot's credit upstream: immediately when the upstream
// port is shard-local (exactly the serial engine), via the outbox otherwise.
func (s *engShard) pop(p *InPort) flit.Flit {
	f := p.buf[0]
	copy(p.buf, p.buf[1:])
	p.buf = p.buf[:len(p.buf)-1]
	if p.upstream != nil {
		s.credit(p.upstream.from)
	}
	return f
}

// popSunk is pop for sunk-drain consumption: the credit is deferred to the
// end of the traversal phase even when local (see sunkCredits).
func (s *engShard) popSunk(p *InPort) flit.Flit {
	f := p.buf[0]
	copy(p.buf, p.buf[1:])
	p.buf = p.buf[:len(p.buf)-1]
	if p.upstream != nil {
		s.sunkCredits = append(s.sunkCredits, p.upstream.from)
	}
	return f
}

func (s *engShard) credit(op *OutPort) {
	if op.node.shard == s.idx {
		op.credits++
		return
	}
	s.creditOut = append(s.creditOut, op)
}

// applyCredits drains every shard's credit outbox. Credits are commutative
// counter increments, so the apply order cannot matter.
func (e *Engine) applyCredits() {
	for _, s := range e.shards {
		for _, op := range s.creditOut {
			op.credits++
		}
		s.creditOut = s.creditOut[:0]
	}
}

// applyFlits lands every shard's boundary-link pushes and activates the
// links in their owning shards. Each link has exactly one possible pusher
// per cycle (its fixed upstream port), so pipe entry order matches serial.
func (e *Engine) applyFlits() {
	for _, s := range e.shards {
		for i := range s.flitOut {
			p := &s.flitOut[i]
			p.l.pipe = append(p.l.pipe, linkEntry{f: p.f})
			e.shards[p.l.shard].activateLink(p.l)
			p.l, p.f.Header = nil, nil
		}
		s.flitOut = s.flitOut[:0]
	}
}

// Hook event buffering. In multi-shard mode events are gathered per shard
// during the parallel sections and replayed at the barrier, stably sorted by
// the element's serial full-scan position, which reproduces the serial
// engine's emission order exactly (each key emits at most one event per
// phase — except deliveries, where the stable sort preserves an endpoint's
// own pop order).

func (s *engShard) emitDeliver(ep *Node, h *flit.Header) {
	e := s.e
	if e.OnDeliver == nil {
		return
	}
	d := Delivery{At: ep, Header: h, Cycle: e.cycle}
	if e.direct {
		e.OnDeliver(d)
		return
	}
	s.delivers = append(s.delivers, d)
}

func (s *engShard) emitDrop(in *InPort, d Drop) {
	e := s.e
	if e.OnDrop == nil {
		return
	}
	if e.direct {
		e.OnDrop(d)
		return
	}
	s.drops = append(s.drops, pendingDrop{d: d, key: in.ordKey})
}

func (s *engShard) emitForward(from *Node, out int, h *flit.Header, key int64) {
	e := s.e
	if e.OnForward == nil {
		return
	}
	if e.direct {
		e.OnForward(from, out, h, e.cycle)
		return
	}
	s.forwards = append(s.forwards, pendingForward{from: from, out: out, h: h, key: key})
}

func (e *Engine) flushDelivers() {
	if e.OnDeliver == nil {
		return
	}
	buf := e.evDeliver[:0]
	for _, s := range e.shards {
		buf = append(buf, s.delivers...)
		s.delivers = s.delivers[:0]
	}
	stableSortBy(buf, func(d Delivery) int64 { return int64(d.At.ID) })
	for _, d := range buf {
		e.OnDeliver(d)
	}
	e.evDeliver = buf[:0]
}

func (e *Engine) flushDrops() {
	if e.OnDrop == nil {
		return
	}
	buf := e.evDrop[:0]
	for _, s := range e.shards {
		buf = append(buf, s.drops...)
		s.drops = s.drops[:0]
	}
	stableSortBy(buf, func(d pendingDrop) int64 { return d.key })
	for _, d := range buf {
		e.OnDrop(d.d)
	}
	e.evDrop = buf[:0]
}

func (e *Engine) flushForwards() {
	if e.OnForward == nil {
		return
	}
	buf := e.evForward[:0]
	for _, s := range e.shards {
		buf = append(buf, s.forwards...)
		s.forwards = s.forwards[:0]
	}
	stableSortBy(buf, func(f pendingForward) int64 { return f.key })
	for _, f := range buf {
		e.OnForward(f.from, f.out, f.h, e.cycle)
	}
	e.evForward = buf[:0]
}

func stableSortBy[T any](xs []T, key func(T) int64) {
	if len(xs) > 48 {
		slices.SortStableFunc(xs, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
		return
	}
	// Typical case: a handful of events per cycle, already sorted within
	// each shard's run. Insertion sort is stable, which deliveries rely on.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && key(xs[j]) < key(xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
