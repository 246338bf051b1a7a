package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/geom"
)

// uniform-2048: the full 8x16x16 SR2201, open loop in simulated time.
const (
	uniformRate       = 0.02 // packets per PE per cycle
	uniformPacket     = 8    // flits
	uniformBcastEvery = 256  // cycles between S-XB-serialized broadcasts
	uniformPassCycles = 1024 // simulated cycles per pass
	uniformWindow     = 64   // cycles per throughput sample
	uniformMinPasses  = 2
)

var uniformShape = geom.MustShape(8, 16, 16)

// uniformOut is a pass's deterministic output.
type uniformOut struct {
	Unicast     int     // unicast packets delivered
	BcastCopies int     // broadcast copies delivered
	MeanLatency float64 // simulated cycles, unicast
	StateHash   uint64  // Engine().StateHash() after the last cycle
}

// uniformPinned is the output every pass must produce for the default seed.
var uniformPinned = uniformOut{Unicast: 41195, BcastCopies: 8192, MeanLatency: 21.100327709673504, StateHash: 0x32d400acf76c96a0}

// uniformInputs is one pass's traffic, generated before any clock starts.
type uniformInputs struct {
	shape geom.Shape
	pes   []geom.Coord
	sends [][][2]int32 // per cycle: (src, dst) PE indices
	bcast []int32      // origin PE index of broadcast k, sent at cycle k*uniformBcastEvery
}

// genUniform draws Bernoulli uniform-random unicast traffic at uniformRate
// and one broadcast origin per uniformBcastEvery cycles.
func genUniform(seed int64, shape geom.Shape, cycles int) *uniformInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &uniformInputs{shape: shape}
	shape.Enumerate(func(c geom.Coord) bool {
		in.pes = append(in.pes, c)
		return true
	})
	n := int32(len(in.pes))
	in.sends = make([][][2]int32, cycles)
	for c := range in.sends {
		for src := int32(0); src < n; src++ {
			if rng.Float64() >= uniformRate {
				continue
			}
			dst := rng.Int31n(n - 1)
			if dst >= src {
				dst++ // uniform over the other PEs
			}
			in.sends[c] = append(in.sends[c], [2]int32{src, dst})
		}
		if c%uniformBcastEvery == 0 {
			in.bcast = append(in.bcast, rng.Int31n(n))
		}
	}
	return in
}

// uniformPass is one measured pass over a fresh machine.
type uniformPass struct {
	phase   phase
	cycleMs []float64
	heapMB  float64
	out     uniformOut

	sends, refused int
	dropped        int64
	moves          int64
	ctr            engine.Counters
}

// runUniformPass builds a machine and replays in on it. With tr non-nil it
// records spans around every call into core, routing and the engine, and
// splits Send into Reachable + SendUnchecked — exactly Send's body on the
// MD crossbar without the pivot extension.
func runUniformPass(in *uniformInputs, tr *Tracer) (uniformPass, error) {
	var p uniformPass
	p.cycleMs = make([]float64, len(in.sends))
	m, err := core.NewMachine(core.Config{Shape: in.shape})
	if err != nil {
		return p, err
	}
	tm := startTimer()
	for c, sends := range in.sends {
		cs := time.Now()
		for _, s := range sends {
			src, dst := in.pes[s[0]], in.pes[s[1]]
			p.sends++
			if tr == nil {
				if _, err := m.Send(src, dst, uniformPacket); err != nil {
					p.refused++
				}
				continue
			}
			id := tr.Begin("routing.reachable")
			err := m.Reachable(src, dst)
			tr.End(id)
			if err != nil {
				p.refused++
				continue
			}
			id = tr.Begin("core.send")
			_, err = m.SendUnchecked(src, dst, uniformPacket)
			tr.End(id)
			if err != nil {
				p.refused++
			}
		}
		if c%uniformBcastEvery == 0 {
			var id int
			if tr != nil {
				id = tr.Begin("core.broadcast")
			}
			_, _, err := m.Broadcast(in.pes[in.bcast[c/uniformBcastEvery]], uniformPacket)
			if tr != nil {
				tr.End(id)
			}
			if err != nil {
				return p, fmt.Errorf("broadcast at cycle %d: %w", c, err)
			}
		}
		if tr == nil {
			m.Step()
		} else {
			id := tr.Begin("engine.step")
			m.Step()
			tr.End(id)
		}
		p.cycleMs[c] = msOf(time.Since(cs))
	}
	p.phase = tm.stop()
	p.heapMB = liveHeapMB()
	for _, d := range m.Deliveries() {
		if d.Broadcast {
			p.out.BcastCopies++
		} else {
			p.out.Unicast++
		}
	}
	p.out.MeanLatency = m.Latency().Mean()
	p.out.StateHash = m.Engine().StateHash()
	p.dropped = m.Dropped()
	p.moves = m.Engine().Moves()
	p.ctr = m.Engine().Counters()
	runtime.KeepAlive(m)
	return p, nil
}

// uniformErrors is refused plus dropped sends — the numerator of the
// workload's error rate over p.sends.
func uniformErrors(p uniformPass) int64 { return int64(p.refused) + p.dropped }

// buildUniformMachine is the workload's set-up: building the machine.
func buildUniformMachine() (time.Duration, error) {
	t0 := time.Now()
	m, err := core.NewMachine(core.Config{Shape: uniformShape})
	d := time.Since(t0)
	runtime.KeepAlive(m)
	return d, err
}

func runUniform(opt options, rep *report) outcome {
	in := genUniform(opt.seed, uniformShape, uniformPassCycles)
	rep.line("shape %v, rate %g pkt/PE/cycle, %d-flit packets, broadcast every %d cycles, %d cycles per pass",
		uniformShape, uniformRate, uniformPacket, uniformBcastEvery, uniformPassCycles)
	setup, builds, err := measureSetup(buildUniformMachine)
	if err != nil {
		return outcome{err: err}
	}
	var (
		out              outcome
		plain, traced    []uniformPass
		tracers          []*Tracer
		origin           = time.Now()
		passWall         []float64
		firstOut         *uniformOut
		deterministicErr error
	)
	for i := 0; ; i++ {
		var tr *Tracer
		// A traced run alternates untraced and traced passes, so both see
		// the same machine conditions and the overhead is their difference.
		if opt.trace && i%2 == 1 {
			tr = newTracer(origin)
			tr.SetGroup(fmt.Sprintf("pass-%d", i))
		}
		t0 := time.Now()
		p, err := runUniformPass(in, tr)
		if err != nil {
			out.err = err
			return out
		}
		out.attempted += int64(p.sends)
		out.failed += uniformErrors(p)
		if firstOut == nil {
			firstOut = &p.out
		} else if p.out != *firstOut && deterministicErr == nil {
			deterministicErr = fmt.Errorf("pass %d output %+v differs from pass 0 %+v", i, p.out, *firstOut)
		}
		if tr != nil {
			traced = append(traced, p)
			tracers = append(tracers, tr)
		} else {
			plain = append(plain, p)
		}
		passWall = append(passWall, time.Since(t0).Seconds())
		n := len(plain) + len(traced)
		if n >= uniformMinPasses && (!opt.trace || len(traced) > 0) && !roomForPass(origin, opt.seconds, passWall) {
			break
		}
	}
	if deterministicErr != nil {
		out.err = deterministicErr
		return out
	}
	rep.line("output: %d unicast delivered, %d broadcast copies, mean latency %.6f cycles, state hash %#x",
		firstOut.Unicast, firstOut.BcastCopies, firstOut.MeanLatency, firstOut.StateHash)
	if opt.seed == defaultSeed && *firstOut != uniformPinned {
		out.err = fmt.Errorf("default-seed output %+v differs from the pinned %+v", *firstOut, uniformPinned)
		return out
	}

	e2e := uniformE2E(plain)
	e2e["setup_s"] = setup
	rep.metric("setup_s", setup, "s", fmt.Sprintf("(median of %d machine builds)", builds))
	rep.metric("sim_cycles_per_s", e2e["ops_per_s"], "cycles/s", fmt.Sprintf("(median of %d windows of %d cycles over %d passes)", len(plain)*uniformPassCycles/uniformWindow, uniformWindow, len(plain)))
	var cyc []float64
	for _, p := range plain {
		cyc = append(cyc, p.cycleMs...)
	}
	rep.timing("host ms per sim cycle", cyc)
	rep.metric("allocs_per_cycle", e2e["allocs_per_op"], "count", fmt.Sprintf("(%d passes)", len(plain)))
	rep.metric("alloc_bytes_per_cycle", e2e["alloc_bytes_per_op"], "B", fmt.Sprintf("(%d passes)", len(plain)))
	rep.metric("heap_live_mb", e2e["heap_live_mb"], "MB", fmt.Sprintf("(median of %d passes)", len(plain)))
	out.e2e = e2e
	if !opt.trace {
		return out
	}

	spans := mergeSpans(tracers...)
	lt := spans.totals()
	var moves, cycles, visits, skipped, reused, allocated float64
	for _, p := range traced {
		moves += float64(p.moves)
		cycles += float64(len(p.cycleMs))
		visits += float64(p.ctr.Visits())
		skipped += float64(p.ctr.Skipped())
		reused += float64(p.ctr.RouteStatesReused)
		allocated += float64(p.ctr.RouteStatesAllocated)
	}
	sends := float64(lt.count["core.send"])
	us := func(span string) float64 { return ratio(float64(lt.self[span].Nanoseconds())/1000, cycles) }
	nsEach := func(span string) float64 {
		return ratio(float64(lt.self[span].Nanoseconds()), float64(lt.count[span]))
	}
	tracedE2E := uniformE2E(traced)
	out.layers = map[string]float64{
		"engine.step_self_us_per_cycle":   us("engine.step"),
		"engine.ns_per_move":              ratio(float64(lt.self["engine.step"].Nanoseconds()), moves),
		"engine.visits_per_cycle":         ratio(visits, cycles),
		"engine.active_ratio":             ratio(visits, visits+skipped),
		"engine.route_state_reuse_ratio":  ratio(reused, reused+allocated),
		"core.send_us_per_cycle":          us("core.send"),
		"core.send_ns_per_packet":         nsEach("core.send"),
		"core.sends_per_cycle":            ratio(sends, cycles),
		"core.broadcast_us_per_broadcast": nsEach("core.broadcast") / 1000,
		"routing.reachable_us_per_cycle":  us("routing.reachable"),
		"routing.reachable_ns_per_packet": nsEach("routing.reachable"),
		"tracing.overhead_ratio":          ratio(e2e["ops_per_s"], tracedE2E["ops_per_s"]) - 1,
		"tracing.spans_per_op":            ratio(float64(len(spans)), cycles),
	}
	rep.line("traced: %d passes, %.6g cycles/s vs %.6g untraced", len(traced), tracedE2E["ops_per_s"], e2e["ops_per_s"])
	out.spans = spans
	return out
}

// uniformE2E reduces passes to the end-to-end metrics other than setup_s:
// an op is one simulated cycle, and the rate is the median over
// uniformWindow-cycle windows, so a burst of host interference moves few
// samples.
func uniformE2E(passes []uniformPass) map[string]float64 {
	var rate, heapMB, cyc []float64
	var mallocs, bytes, cycles float64
	for _, p := range passes {
		for w := 0; w+uniformWindow <= len(p.cycleMs); w += uniformWindow {
			rate = append(rate, 1000*uniformWindow/sum(p.cycleMs[w:w+uniformWindow]))
		}
		heapMB = append(heapMB, p.heapMB)
		cyc = append(cyc, p.cycleMs...)
		mallocs += float64(p.phase.mallocs)
		bytes += float64(p.phase.heap)
		cycles += float64(len(p.cycleMs))
	}
	return map[string]float64{
		"ops_per_s":          median(rate),
		"op_latency_p50_ms":  percentile(cyc, 50),
		"op_latency_p90_ms":  percentile(cyc, 90),
		"allocs_per_op":      ratio(mallocs, cycles),
		"alloc_bytes_per_op": ratio(bytes, cycles),
		"heap_live_mb":       median(heapMB),
	}
}
