package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"sr2201/internal/campaign"
	"sr2201/internal/core"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/reconfig"
	"sr2201/internal/recovery"
)

// fault-campaign: the exhaustive single-fault map on 8x8 (every router and
// crossbar placement, one mid-run epoch, one shift pattern), crash-safe and
// with online reconfiguration on.
const (
	campaignEpoch           = 18 // the fault lands 18 cycles into the first wave
	campaignCheckpointEvery = 16 // cycles between mid-cell snapshots
	campaignMinPasses       = 3  // the fastest of three passes outlasts an episode of neighbour load
)

var campaignShape = geom.MustShape(8, 8)

// campaignInputs is the seeded part of the campaign configuration.
type campaignInputs struct {
	epoch int64
	shift int
	bsrc  geom.Coord
}

// genCampaign draws the shift pattern and the broadcast origin. The epoch
// is fixed: how many packets are in flight when the fault lands sets the
// cost of certifying the reconfiguration, so a seeded epoch would make the
// workload's size depend on the seed.
func genCampaign(seed int64) campaignInputs {
	rng := rand.New(rand.NewSource(seed))
	n := campaignShape.Size()
	return campaignInputs{
		epoch: campaignEpoch,
		shift: 1 + rng.Intn(n-1), // never the identity
		bsrc:  campaignShape.CoordOf(rng.Intn(n)),
	}
}

// config is the campaign.Run configuration (without its store).
func (in campaignInputs) config() campaign.Config {
	return campaign.Config{
		Shape:      campaignShape,
		Epochs:     []int64{in.epoch},
		Patterns:   []campaign.Pattern{campaign.Shift(in.shift)},
		Waves:      4,
		Gap:        24,
		Inject:     inject.Options{Retransmit: true, RetryAfter: 24, StallThreshold: 256},
		Recovery:   recovery.Options{Enabled: true},
		Broadcasts: []campaign.Broadcast{{Cycle: 0, Src: in.bsrc}},
		Reconfig:   core.ReconfigBoth,
		Parallel:   1,

		CheckpointEvery: campaignCheckpointEvery,
	}
}

// campaignPass is one complete campaign over a fresh store.
type campaignPass struct {
	phase  phase
	cellMs []float64
	cycles int64 // simulated cycles over all cells
	heapMB float64
	cells  []campaign.CellResult
	digest [32]byte
}

// openStore opens a campaign store in a new empty directory: a reused
// store would serve finished cells from disk.
func openStore(workdir string) (*campaign.Store, error) {
	dir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := campaign.OpenStore(dir)
	if err != nil {
		os.RemoveAll(dir)
	}
	return st, err
}

// campaignSetUp is the workload's set-up, the work before the first cell
// can step: opening a fresh store and building the grid's first cell.
func campaignSetUp(in campaignInputs, workdir string) func() (time.Duration, error) {
	first := cellSpecs(in.config())[0]
	return func() (time.Duration, error) {
		t0 := time.Now()
		st, err := openStore(workdir)
		if err != nil {
			return 0, err
		}
		c, err := campaign.NewCellRun(first)
		d := time.Since(t0)
		runtime.KeepAlive(c)
		os.RemoveAll(st.Dir())
		return d, err
	}
}

// runCampaignPass runs the whole grid through campaign.Run.
func runCampaignPass(in campaignInputs, workdir string) (campaignPass, error) {
	var p campaignPass
	st, err := openStore(workdir)
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(st.Dir())
	cfg := in.config()
	cfg.Store = st
	p.cellMs = make([]float64, 0, 128)
	var last time.Time
	cfg.OnCell = func(cycles int64) {
		now := time.Now()
		p.cellMs = append(p.cellMs, msOf(now.Sub(last)))
		p.cycles += cycles
		last = now
	}
	tm := startTimer()
	last = tm.start
	res, err := campaign.Run(cfg)
	p.phase = tm.stop()
	if err != nil {
		return p, err
	}
	if p.heapMB, err = cellHeapMB(in); err != nil {
		return p, err
	}
	p.cells = res.Cells
	p.digest = cellsDigest(res.Cells)
	return p, nil
}

// cellsDigest fingerprints every field of every cell result.
func cellsDigest(cells []campaign.CellResult) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%+v", cells)))
}

// f2Failure names the first F2 shape criterion a cell breaks, or "" when
// it passes: no deadlock or stall, drained, refusals exactly as predicted,
// and no undocumented loss. F2 itself runs no broadcasts and counts every
// drop against the unicast packets accepted; here a broadcast that a fault
// cuts mid-fan-out is a documented, never-retransmitted loss (DropsOther),
// so the unicast balance is Delivered + LostUnreachable == Accepted, and
// the broadcast balance accounts for every copy owed: with no broadcast
// dropped every copy arrives, and each dropped broadcast (counted once,
// however many of its branches were cut) owes at least one of the missing
// copies. The result does not say how many copies a cut branch owed, so
// that is as tight as the balance gets from outside.
func f2Failure(c campaign.CellResult) string {
	st := c.Stats
	missing := c.BroadcastCopiesExpected - c.BroadcastCopies
	switch {
	case c.Deadlocked || c.Stalled || c.Livelocked:
		return "wedged"
	case !c.Drained:
		return "did not drain"
	case !c.UnreachableAsPredicted:
		return "refusals off prediction"
	case st.Duplicates != 0 || st.LostExhausted != 0 || st.LostUntraceable != 0 ||
		c.Delivered+st.LostUnreachable != c.Accepted:
		return "undocumented unicast losses"
	case missing < 0:
		return "extra broadcast copies"
	case st.DropsOther > c.Broadcasts:
		return "more broadcasts dropped than issued"
	case st.DropsOther == 0 && missing != 0:
		return fmt.Sprintf("%d of %d broadcast copies lost with no drop counted", missing, c.BroadcastCopiesExpected)
	case missing < st.DropsOther:
		return "fewer broadcast copies missing than broadcasts dropped"
	}
	return ""
}

// campaignTrace is the traced loop's state: the tracer, the counts the
// cells' event callbacks deliver, and whether a reconfiguration attempt
// fired inside the hook call in progress (OnReconfig fires synchronously).
type campaignTrace struct {
	tr        *Tracer
	fired     bool
	recfg     reconfig.Stats
	recovery  int
	snapBytes int
}

// cellSpecs lists the grid's cells in the order campaign.Run numbers them,
// each built the way campaign.Run builds it.
func cellSpecs(cfg campaign.Config) []campaign.Spec {
	var specs []campaign.Spec
	for _, f := range campaign.PlacementsFor(cfg.Topology, cfg.Shape) {
		for _, epoch := range cfg.Epochs {
			for _, pat := range cfg.Patterns {
				specs = append(specs, campaign.Spec{
					Shape:      cfg.Shape,
					Events:     []inject.Event{{Cycle: epoch, Fault: f}},
					Pattern:    pat,
					Waves:      cfg.Waves,
					Gap:        cfg.Gap,
					Inject:     cfg.Inject,
					Recovery:   cfg.Recovery,
					Broadcasts: cfg.Broadcasts,
					Reconfig:   cfg.Reconfig,
				})
			}
		}
	}
	return specs
}

// cellHeapMB runs the grid's first cell to completion and reports the live
// heap while its machine is still reachable: the memory one cell holds.
func cellHeapMB(in campaignInputs) (float64, error) {
	c, err := campaign.NewCellRun(cellSpecs(in.config())[0])
	if err != nil {
		return 0, err
	}
	for !c.Step() {
	}
	mb := liveHeapMB()
	runtime.KeepAlive(c)
	return mb, nil
}

// runTracedCampaignPass runs the same grid as campaign.Run through its own
// loop over the public stepper API, mirroring the store-backed cell runner
// call for call, with spans around each call.
func runTracedCampaignPass(in campaignInputs, workdir string, ct *campaignTrace) (campaignPass, error) {
	var p campaignPass
	tr := ct.tr
	st, err := openStore(workdir)
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(st.Dir())
	cfg := in.config()
	specs := cellSpecs(cfg)
	tm := startTimer()
	for i, spec := range specs {
		tr.SetGroup(fmt.Sprintf("cell-%d", i))
		cell := tr.Begin("campaign.cell")
		res, err := ct.runCell(st, i, spec, cfg.CheckpointEvery)
		tr.End(cell)
		p.cellMs = append(p.cellMs, msOf(tr.Dur(cell)))
		if err != nil {
			return p, fmt.Errorf("cell %d: %w", i, err)
		}
		p.cells = append(p.cells, res)
		p.cycles += res.EndCycle
	}
	p.phase = tm.stop()
	p.digest = cellsDigest(p.cells)
	return p, nil
}

// runCell is one cell of the traced loop.
func (ct *campaignTrace) runCell(st *campaign.Store, i int, spec campaign.Spec, every int64) (campaign.CellResult, error) {
	tr := ct.tr
	if res, ok, err := st.LoadResult(i); err != nil || ok {
		return res, fmt.Errorf("fresh store holds a result (err %v)", err)
	}
	id := tr.Begin("campaign.new_cell_run")
	c, err := campaign.NewCellRun(spec)
	tr.End(id)
	if err != nil {
		return campaign.CellResult{}, err
	}
	if _, ok := st.LoadSnap(i); ok {
		return campaign.CellResult{}, fmt.Errorf("fresh store holds a snapshot")
	}
	c.OnReconfig(func(ev reconfig.Event) {
		ct.fired = true
		ct.recfg.Attempts++
		ct.recfg.Refusals += len(ev.Refusals)
		switch ev.Outcome {
		case reconfig.OutcomeHotSwap:
			ct.recfg.HotSwaps++
		case reconfig.OutcomeDrain:
			ct.recfg.Drains++
		case reconfig.OutcomeFallback:
			ct.recfg.Fallbacks++
		}
	})
	c.OnRecovery(func(recovery.Event) { ct.recovery++ })
	eng := c.Machine().Engine()
	if pre := eng.PreCycle; pre != nil {
		eng.PreCycle = ct.wrapHook("inject.pre_cycle", pre)
	}
	if post := eng.PostCycle; post != nil {
		eng.PostCycle = ct.wrapHook("recovery.post_cycle", post)
	}
	lastSnap := c.Cycle()
	for {
		id := tr.Begin("campaign.step")
		done := c.Step()
		tr.End(id)
		if done {
			break
		}
		if every > 0 && c.Cycle()-lastSnap >= every {
			id := tr.Begin("checkpoint.encode")
			data := c.Snapshot()
			tr.End(id)
			ct.snapBytes += len(data)
			id = tr.Begin("checkpoint.write")
			err := st.SaveSnap(i, data)
			tr.End(id)
			if err != nil {
				return campaign.CellResult{}, err
			}
			lastSnap = c.Cycle()
		}
	}
	id = tr.Begin("campaign.cell_result")
	res, err := c.Result()
	tr.End(id)
	if err != nil {
		return res, err
	}
	id = tr.Begin("checkpoint.write")
	err = st.SaveResult(i, res)
	tr.End(id)
	return res, err
}

// wrapHook turns an engine hook into a span named name, renamed
// reconfig.attempt when a reconfiguration fired inside it.
func (ct *campaignTrace) wrapHook(name string, hook func(int64)) func(int64) {
	return func(cycle int64) {
		ct.fired = false
		id := ct.tr.Begin(name)
		hook(cycle)
		ct.tr.End(id)
		if ct.fired {
			ct.tr.Rename(id, "reconfig.attempt")
		}
	}
}

func runFaultCampaign(opt options, rep *report) outcome {
	in := genCampaign(opt.seed)
	rep.line("shape %v, %d placements, epoch %d, shift+%d, broadcast from %v at cycle 0, reconfig %s, checkpoint every %d cycles",
		campaignShape, len(campaign.Placements(campaignShape)), in.epoch, in.shift, in.bsrc, core.ReconfigBoth, campaignCheckpointEvery)
	workdir, err := os.MkdirTemp(opt.workdir, "campaign-")
	if err != nil {
		return outcome{err: err}
	}
	defer os.RemoveAll(workdir)
	setup, setups, err := measureSetup(campaignSetUp(in, workdir))
	if err != nil {
		return outcome{err: err}
	}
	var (
		out      outcome
		plain    []campaignPass
		traced   []campaignPass
		origin   = time.Now()
		passWall []float64
		ct       = &campaignTrace{tr: newTracer(origin)}
	)
	for i := 0; ; i++ {
		var p campaignPass
		var err error
		if opt.trace && i%2 == 1 {
			p, err = runTracedCampaignPass(in, workdir, ct)
		} else {
			p, err = runCampaignPass(in, workdir)
		}
		if err != nil {
			out.err = err
			return out
		}
		for j, c := range p.cells {
			out.attempted++
			if why := f2Failure(c); why != "" {
				out.failed++
				rep.line("cell %d (%v @%d) fails F2: %s", j, c.Fault, c.Epoch, why)
			}
		}
		if len(plain)+len(traced) > 0 {
			ref := plain[0].digest
			if p.digest != ref {
				out.err = fmt.Errorf("pass %d cell digest %x differs from pass 0 %x", i, p.digest[:8], ref[:8])
				return out
			}
		}
		if opt.trace && i%2 == 1 {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		passWall = append(passWall, p.phase.wall.Seconds())
		n := len(plain) + len(traced)
		if n >= campaignMinPasses && (!opt.trace || len(traced) > 0) && !roomForPass(origin, opt.seconds, passWall) {
			break
		}
	}
	ref := plain[0]
	rep.line("output: %d cells, %d simulated cycles, %d reconfigured, %d recoveries, digest %x",
		len(ref.cells), ref.cycles, (&campaign.Result{Cells: ref.cells}).Reconfigured(),
		(&campaign.Result{Cells: ref.cells}).Recoveries(), ref.digest[:8])

	e2e := campaignE2E(plain)
	e2e["setup_s"] = setup
	rep.metric("setup_s", setup, "s", fmt.Sprintf("(store open plus first cell build; median of %d)", setups))
	rep.metric("cells_per_s", e2e["ops_per_s"], "cells/s", fmt.Sprintf("(fastest of %d campaigns of %d cells)", len(plain), len(ref.cells)))
	var cellMs []float64
	for _, p := range plain {
		cellMs = append(cellMs, p.cellMs...)
	}
	rep.timing("cell latency", cellMs)
	rep.timing("placement fastest cell latency", placementMs(plain))
	var mallocs, bytes, cycles float64
	for _, p := range plain {
		mallocs += float64(p.phase.mallocs)
		bytes += float64(p.phase.heap)
		cycles += float64(p.cycles)
	}
	rep.metric("allocs_per_cell", e2e["allocs_per_op"], "count", fmt.Sprintf("(%d passes)", len(plain)))
	rep.metric("alloc_bytes_per_cell", e2e["alloc_bytes_per_op"], "B", fmt.Sprintf("(%d passes)", len(plain)))
	rep.metric("allocs_per_cycle", ratio(mallocs, cycles), "count", fmt.Sprintf("(%d passes)", len(plain)))
	rep.metric("alloc_bytes_per_cycle", ratio(bytes, cycles), "B", fmt.Sprintf("(%d passes)", len(plain)))
	rep.metric("heap_live_mb", e2e["heap_live_mb"], "MB", fmt.Sprintf("(live heap with cell 0 finished and reachable, median of %d passes)", len(plain)))
	out.e2e = e2e
	if !opt.trace {
		return out
	}

	spans := mergeSpans(ct.tr)
	lt := spans.totals()
	var cells, retx, killed, recoveries, stalls float64
	for _, p := range traced {
		for _, c := range p.cells {
			cells++
			retx += float64(c.Stats.Retransmits)
			killed += float64(c.Stats.KilledInFlight)
			recoveries += float64(c.Recoveries)
			if c.Stalled {
				stalls++
			}
		}
	}
	perCell := func(x float64) float64 { return ratio(x, cells) }
	msPerCell := func(span string) float64 { return perCell(float64(lt.self[span].Nanoseconds()) / 1e6) }
	tracedE2E := campaignE2E(traced)
	out.layers = map[string]float64{
		"inject.pre_cycle_ms_per_cell":      msPerCell("inject.pre_cycle"),
		"inject.retransmits_per_cell":       perCell(retx),
		"inject.killed_in_flight_per_cell":  perCell(killed),
		"reconfig.attempt_ms_per_cell":      msPerCell("reconfig.attempt"),
		"reconfig.attempt_ms_p50":           median(lt.durs["reconfig.attempt"]),
		"reconfig.attempts_per_cell":        perCell(float64(ct.recfg.Attempts)),
		"reconfig.hot_swaps_per_cell":       perCell(float64(ct.recfg.HotSwaps)),
		"reconfig.drains_per_cell":          perCell(float64(ct.recfg.Drains)),
		"reconfig.fallbacks_per_cell":       perCell(float64(ct.recfg.Fallbacks)),
		"reconfig.refusals_per_cell":        perCell(float64(ct.recfg.Refusals)),
		"recovery.post_cycle_ms_per_cell":   msPerCell("recovery.post_cycle"),
		"recovery.stalls_detected_per_cell": perCell(stalls + float64(ct.recovery)),
		"recovery.recoveries_per_cell":      perCell(recoveries),
		"campaign.cell_setup_ms_per_cell":   msPerCell("campaign.new_cell_run"),
		"campaign.step_self_ms_per_cell":    msPerCell("campaign.step"),
		"campaign.cell_result_ms_per_cell":  msPerCell("campaign.cell_result"),
		"campaign.cell_p50_ms":              median(lt.durs["campaign.cell"]),
		"checkpoint.encode_ms_per_cell":     msPerCell("checkpoint.encode"),
		"checkpoint.write_ms_per_cell":      msPerCell("checkpoint.write"),
		"checkpoint.bytes_per_snapshot":     ratio(float64(ct.snapBytes), float64(lt.count["checkpoint.encode"])),
		"tracing.overhead_ratio":            ratio(e2e["ops_per_s"], tracedE2E["ops_per_s"]) - 1,
		"tracing.spans_per_op":              perCell(float64(len(spans))),
	}
	rep.line("traced: %d passes, %.6g cells/s vs %.6g untraced; cell results identical to campaign.Run", len(traced), tracedE2E["ops_per_s"], e2e["ops_per_s"])
	out.spans = spans
	return out
}

// placementMs is each placement's fastest cell time over the passes. A
// handful of crossbar placements cost about 1.5 times the rest and sit
// just above the 90th percentile, so p90 is the top of the faster group,
// where a few cells caught in a burst of host interference move it most.
// The cells are deterministic, so a placement's fastest pass is its least
// disturbed one: neighbour load on a shared host only ever adds time, and
// it comes in episodes that can outlast a 7-second pass.
func placementMs(passes []campaignPass) []float64 {
	out := make([]float64, len(passes[0].cellMs))
	for i := range out {
		out[i] = passes[0].cellMs[i]
		for _, p := range passes[1:] {
			out[i] = math.Min(out[i], p.cellMs[i])
		}
	}
	return out
}

// campaignE2E reduces passes to the end-to-end metrics other than
// setup_s: an op is one cell, its rate is the fastest pass's, and its
// latency percentiles are over the placements' fastest cell times. A pass
// takes about 7 seconds, so a run holds only a few, and one slowed by
// neighbour load would move their median.
func campaignE2E(passes []campaignPass) map[string]float64 {
	var heapMB []float64
	var rate, mallocs, bytes, cells float64
	cellMs := placementMs(passes)
	for _, p := range passes {
		rate = math.Max(rate, float64(len(p.cells))/p.phase.wall.Seconds())
		heapMB = append(heapMB, p.heapMB)
		mallocs += float64(p.phase.mallocs)
		bytes += float64(p.phase.heap)
		cells += float64(len(p.cells))
	}
	return map[string]float64{
		"ops_per_s":          rate,
		"op_latency_p50_ms":  percentile(cellMs, 50),
		"op_latency_p90_ms":  percentile(cellMs, 90),
		"allocs_per_op":      ratio(mallocs, cells),
		"alloc_bytes_per_op": ratio(bytes, cells),
		"heap_live_mb":       median(heapMB),
	}
}
