package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"sr2201/internal/geom"
	"sr2201/internal/jobs"
)

// serve-mixed: an in-process job server on a loopback listener, driven by
// closed-loop HTTP clients that each wait for their artifact before
// submitting again.
const (
	serveClients      = 2
	serveWorkers      = 2
	serveOpsPerClient = 4096 // generated ops per client, more than a run uses

	// serveFaultWaves sizes a fault job so that simulation, not state-dir
	// file operations, is most of its time: with 4 waves the job is mostly
	// file operations on the shared disk, and throughput swung by a factor
	// of two from run to run with the host's disk load.
	serveFaultWaves = 96
)

var (
	serveFaultShape    = geom.MustShape(8, 8)
	serveCampaignShape = geom.MustShape(4, 4)
)

// serveOp is one submission, encoded before any clock starts.
type serveOp struct {
	body []byte
	key  int    // index of the distinct spec in serveInputs.specs
	kind string // "fault", "campaign", or "resubmit": a spec this client already fetched
}

// serveInputs is every client's op sequence and the distinct specs in them.
type serveInputs struct {
	specs   []jobs.Spec
	clients [][]serveOp
}

// genServe draws each client's closed-loop op sequence, block by block, so
// every run sees the same mix whatever the seed. Fresh specs are distinct
// across all clients; a resubmission repeats one of the same client's
// earlier fresh specs, which has finished by then.
func genServe(seed int64, opsPerClient int) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{}
	seen := map[string]bool{}
	fresh := func(campaignJob bool) (int, error) {
		for try := 0; ; try++ {
			if try == 1000 {
				return 0, errors.New("serve inputs: the spec space is exhausted")
			}
			var spec jobs.Spec
			if campaignJob {
				spec = serveCampaignSpec(rng)
			} else {
				spec = serveFaultSpec(rng)
			}
			canon, err := jobs.CanonicalHash(spec)
			if err != nil {
				return 0, err
			}
			if !seen[canon] {
				seen[canon] = true
				in.specs = append(in.specs, spec)
				return len(in.specs) - 1, nil
			}
		}
	}
	for c := 0; c < serveClients; c++ {
		var ops []serveOp
		var mine []int
		var block []string
		for i := 0; i < opsPerClient; i++ {
			if len(block) == 0 {
				block = serveBlock(rng)
			}
			kind := block[0]
			block = block[1:]
			op := serveOp{kind: kind}
			if kind == "resubmit" && len(mine) > 0 {
				op.key = mine[rng.Intn(len(mine))]
			} else {
				if kind == "resubmit" {
					op.kind = "fault" // nothing fetched yet to resubmit
				}
				k, err := fresh(op.kind == "campaign")
				if err != nil {
					return nil, err
				}
				op.key = k
				mine = append(mine, k)
			}
			body, err := json.Marshal(in.specs[op.key])
			if err != nil {
				return nil, err
			}
			op.body = body
			ops = append(ops, op)
		}
		in.clients = append(in.clients, ops)
	}
	return in, nil
}

// serveBlock is ten op kinds in a seeded order: 7 fault, 1 campaign and 2
// resubmissions.
func serveBlock(rng *rand.Rand) []string {
	b := []string{"fault", "fault", "fault", "fault", "fault", "fault", "fault", "campaign", "resubmit", "resubmit"}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// serveFaultSpec is an 8x8 single-fault job: one mid-run router or crossbar
// fault (uniform over the 80 placements), retransmission, one broadcast, no
// reconfiguration, and serveFaultWaves traffic waves. Recovery is on:
// without online reconfiguration a mid-run fault leaves packets routed
// under the old tables finishing under the new ones, a transition no
// theorem covers, and a few of these jobs wedge there (README.md).
func serveFaultSpec(rng *rand.Rand) jobs.Spec {
	n := serveFaultShape.Size()
	place := rng.Intn(n + 2*serveFaultShape[0])
	epoch := 8 + rng.Intn(33)
	var fail string
	if place < n {
		c := serveFaultShape.CoordOf(place)
		fail = fmt.Sprintf("rtc:%d,%d@%d", c[0], c[1], epoch)
	} else {
		dim, at := (place-n)/serveFaultShape[0], (place-n)%serveFaultShape[0]
		x, y := 0, at // a dimension-0 crossbar is the line through (0, at)
		if dim == 1 {
			x, y = at, 0
		}
		fail = fmt.Sprintf("xb:%d:%d,%d@%d", dim, x, y, epoch)
	}
	b := serveFaultShape.CoordOf(rng.Intn(n))
	return jobs.Spec{Kind: jobs.KindFault, Fault: &jobs.FaultSpec{
		Shape:      serveFaultShape.String(),
		Fails:      []string{fail},
		Broadcasts: []string{fmt.Sprintf("%d,%d@0", b[0], b[1])},
		Pattern:    fmt.Sprintf("shift+%d", 1+rng.Intn(n-1)),
		Waves:      serveFaultWaves,
		Gap:        24,
		Inject:     jobs.InjectSpec{Retransmit: true, RetryAfter: 24, Stall: 256},
		Recovery:   jobs.RecoverySpec{Enabled: true},
	}}
}

// serveCampaignSpec is a small exhaustive 4x4 campaign job, F2-style: one
// fault epoch inside the traffic waves, one shift pattern, no broadcast,
// and a seeded retransmission timeout.
func serveCampaignSpec(rng *rand.Rand) jobs.Spec {
	n := serveCampaignShape.Size()
	return jobs.Spec{Kind: jobs.KindCampaign, Campaign: &jobs.CampaignSpec{
		Shape:    serveCampaignShape.String(),
		Epochs:   []int64{int64(8 + rng.Intn(65))},
		Patterns: []string{fmt.Sprintf("shift+%d", 1+rng.Intn(n-1))},
		Waves:    4,
		Gap:      24,
		Inject:   jobs.InjectSpec{Retransmit: true, RetryAfter: int64(16 + 4*rng.Intn(5)), Stall: 256},
	}}
}

// server is one booted manager behind a loopback HTTP listener.
type server struct {
	dir  string
	mgr  *jobs.Manager
	srv  *http.Server
	done chan struct{} // closed when Serve returns
	base string
}

// bootServer opens a manager on a fresh state dir and serves it.
func bootServer(workdir string) (*server, time.Duration, error) {
	dir, err := os.MkdirTemp(workdir, "state-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	mgr, err := jobs.OpenManager(jobs.Config{StateDir: dir, Workers: serveWorkers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Stop()
		os.RemoveAll(dir)
		return nil, 0, err
	}
	s := &server{dir: dir, mgr: mgr, srv: &http.Server{Handler: jobs.NewServer(mgr)}, done: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, time.Since(t0), nil
}

// close stops the listener, the manager's workers and removes the state.
func (s *server) close() {
	s.srv.Close()
	<-s.done
	s.mgr.Stop()
	os.RemoveAll(s.dir)
}

// bootOnce is the workload's set-up: it boots a server, times the boot,
// and closes it again.
func bootOnce(workdir string) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		s, d, err := bootServer(workdir)
		if err == nil {
			s.close()
		}
		return d, err
	}
}

// jobRecord is what a client saw for one submission.
type jobRecord struct {
	key      int
	kind     string
	latency  time.Duration
	artifact []byte
	deduped  bool
	shed     bool
	err      error
}

// client is one closed-loop HTTP caller.
type client struct {
	hc   *http.Client
	base string
	tr   *Tracer // nil when untraced
}

// do submits op, waits for its terminal event, and fetches the artifact;
// the job's latency runs from the POST to the end of the artifact GET.
func (c *client) do(op serveOp, group string) jobRecord {
	t0 := time.Now()
	rec := c.exchange(op, group)
	rec.latency = time.Since(t0)
	return rec
}

// exchange is do's HTTP conversation.
func (c *client) exchange(op serveOp, group string) jobRecord {
	rec := jobRecord{key: op.key, kind: op.kind}
	tr := c.tr
	var root int
	if tr != nil {
		tr.SetGroup(group)
		root = tr.Begin("jobs.job")
		defer func() { tr.End(root) }()
	}

	span := c.begin("jobs.submit")
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(op.body))
	if err != nil {
		c.end(span)
		rec.err = err
		return rec
	}
	var sub struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	c.end(span)
	if resp.StatusCode != http.StatusAccepted {
		rec.shed = resp.StatusCode == http.StatusTooManyRequests
		rec.err = fmt.Errorf("POST /jobs: %s", resp.Status)
		return rec
	}
	if err != nil {
		rec.err = fmt.Errorf("POST /jobs: %w", err)
		return rec
	}
	rec.deduped = sub.Deduped
	queued := time.Now() // the POST has returned, so the job is in the queue

	span = c.begin("jobs.events")
	arrivals, last, err := c.events(sub.ID)
	c.end(span)
	if err != nil {
		rec.err = err
		return rec
	}
	if last != "done" {
		rec.err = fmt.Errorf("job %s (%s) ended %q: %s", sub.ID, op.body, last, c.jobError(sub.ID))
		return rec
	}
	if tr != nil && !rec.deduped {
		// The event stream opens after the POST returns and replays the
		// events it missed, so the "queued" event's arrival marks the
		// first read of the stream, not the job entering the queue; the
		// wait is counted from the POST's return instead.
		if s, ok := arrivals["started"]; ok {
			tr.Record("jobs.queue_wait", queued, s)
			tr.Record("jobs.run", s, arrivals["done"])
		}
	}

	span = c.begin("jobs.artifact")
	resp, err = c.hc.Get(c.base + "/jobs/" + sub.ID + "/artifact")
	if err == nil {
		rec.artifact, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET artifact of %s: %s", sub.ID, resp.Status)
		}
	}
	c.end(span)
	rec.err = err
	return rec
}

// events reads the job's event stream to its end, noting when each event
// type first arrived and which type came last.
func (c *client) events(id string) (map[string]time.Time, string, error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/events")
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET events of %s: %s", id, resp.Status)
	}
	arrivals := map[string]time.Time{}
	last := ""
	dec := json.NewDecoder(resp.Body)
	for {
		var ev jobs.Event
		if err := dec.Decode(&ev); errors.Is(err, io.EOF) {
			return arrivals, last, nil
		} else if err != nil {
			return nil, "", fmt.Errorf("events of %s: %w", id, err)
		}
		if _, ok := arrivals[ev.Type]; !ok {
			arrivals[ev.Type] = time.Now()
		}
		last = ev.Type
	}
}

// jobError fetches a job's error text for a failure report.
func (c *client) jobError(id string) string {
	resp, err := c.hc.Get(c.base + "/jobs/" + id)
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	var view jobs.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return err.Error()
	}
	return view.Error
}

func (c *client) begin(name string) int {
	if c.tr == nil {
		return 0
	}
	return c.tr.Begin(name)
}

func (c *client) end(id int) {
	if c.tr != nil {
		c.tr.End(id)
	}
}

// servePhase is one timed phase against one booted server.
type servePhase struct {
	phase   phase
	heapMB  float64
	records []jobRecord
	spans   spanSet
}

// runServePhase boots a server and drives it with every client until the
// deadline; each client finishes the job it has in hand.
func runServePhase(in *serveInputs, workdir string, seconds float64, origin time.Time, traced bool) (servePhase, error) {
	var p servePhase
	s, _, err := bootServer(workdir)
	if err != nil {
		return p, err
	}
	defer s.close()
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}
	defer transport.CloseIdleConnections()
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = &client{hc: &http.Client{Transport: transport}, base: s.base}
		if traced {
			clients[i].tr = newTracer(origin)
		}
	}
	recs := make([][]jobRecord, serveClients)
	tm := startTimer()
	deadline := tm.start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			recs[i] = make([]jobRecord, 0, 512)
			for j, op := range in.clients[i] {
				if !time.Now().Before(deadline) {
					return
				}
				recs[i] = append(recs[i], c.do(op, fmt.Sprintf("job-%d-%d", i, j)))
			}
		}(i, c)
	}
	wg.Wait()
	p.phase = tm.stop()
	p.heapMB = liveHeapMB()
	runtime.KeepAlive(s)
	var tracers []*Tracer
	for i, c := range clients {
		p.records = append(p.records, recs[i]...)
		if c.tr != nil {
			tracers = append(tracers, c.tr)
		}
	}
	p.spans = mergeSpans(tracers...)
	return p, nil
}

// references computes, outside any timed phase, the artifact of every spec
// the records name on an in-memory manager (no state dir, no HTTP).
func references(in *serveInputs, records []jobRecord) (map[int][]byte, error) {
	keys := map[int]bool{}
	for _, r := range records {
		keys[r.key] = true
	}
	mgr := jobs.NewManager(jobs.Config{Workers: serveWorkers, QueueDepth: len(keys) + 1})
	defer mgr.Stop()
	ids := map[int]string{}
	for k := range keys {
		id, _, err := mgr.Submit(in.specs[k])
		if err != nil {
			return nil, fmt.Errorf("reference submit: %w", err)
		}
		ids[k] = id
	}
	out := map[int][]byte{}
	for k, id := range ids {
		for {
			_, terminal, notify, err := mgr.Events(id, 0)
			if err != nil {
				return nil, err
			}
			if terminal {
				break
			}
			<-notify
		}
		art, ok, err := mgr.Artifact(id)
		if err != nil || !ok {
			view, _ := mgr.Lookup(id)
			return nil, fmt.Errorf("reference for spec %d: no artifact (status %s, %s)", k, view.Status, view.Error)
		}
		out[k] = art
	}
	return out, nil
}

// checkRecords counts failed submissions and reports the first mismatch
// with the reference artifacts.
func checkRecords(records []jobRecord, refs map[int][]byte) (failed int64, first error) {
	note := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for _, r := range records {
		switch {
		case r.err != nil:
			note(r.err)
		case r.kind == "resubmit" && !r.deduped:
			note(fmt.Errorf("resubmission of spec %d was not deduped", r.key))
		case !bytes.Equal(r.artifact, refs[r.key]):
			note(fmt.Errorf("artifact of spec %d differs from the in-process reference", r.key))
		}
	}
	return failed, first
}

func runServeMixed(opt options, rep *report) outcome {
	in, err := genServe(opt.seed, serveOpsPerClient)
	if err != nil {
		return outcome{err: err}
	}
	rep.line("%d clients closed loop, %d workers; of every 10 submissions 7 fresh %v fault jobs, 1 fresh %v campaign job, 2 resubmissions",
		serveClients, serveWorkers, serveFaultShape, serveCampaignShape)
	workdir, err := os.MkdirTemp(opt.workdir, "serve-")
	if err != nil {
		return outcome{err: err}
	}
	defer os.RemoveAll(workdir)
	setup, boots, err := measureSetup(bootOnce(workdir))
	if err != nil {
		return outcome{err: err}
	}
	origin := time.Now()
	seconds := opt.seconds
	if opt.trace {
		seconds /= 2 // an untraced phase, then a traced one
	}
	phases := []bool{false}
	if opt.trace {
		phases = append(phases, true)
	}
	var runs []servePhase
	var all []jobRecord
	for _, traced := range phases {
		p, err := runServePhase(in, workdir, seconds, origin, traced)
		if err != nil {
			return outcome{err: err}
		}
		runs = append(runs, p)
		all = append(all, p.records...)
	}
	refs, err := references(in, all)
	if err != nil {
		return outcome{err: err}
	}
	out := outcome{attempted: int64(len(all))}
	out.failed, out.err = checkRecords(all, refs)
	if out.err != nil {
		return out
	}
	rep.line("output: %d submissions, %d distinct specs, every artifact identical to the in-process reference", len(all), len(refs))

	plain := runs[0]
	e2e := serveE2E(plain)
	e2e["setup_s"] = setup
	rep.metric("setup_s", setup, "s", fmt.Sprintf("(median of %d manager+listener boots)", boots))
	rep.metric("jobs_per_s", e2e["ops_per_s"], "jobs/s", fmt.Sprintf("(%d jobs in %.3gs)", len(plain.records), plain.phase.wall.Seconds()))
	rep.timing("job_latency", latenciesMs(plain.records))
	for _, kind := range []string{"fault", "campaign", "resubmit"} {
		var of []jobRecord
		for _, r := range plain.records {
			if r.kind == kind {
				of = append(of, r)
			}
		}
		rep.timing("job_latency "+kind, latenciesMs(of))
	}
	rep.metric("allocs_per_job", e2e["allocs_per_op"], "count", fmt.Sprintf("(%d jobs)", len(plain.records)))
	rep.metric("alloc_bytes_per_job", e2e["alloc_bytes_per_op"], "B", fmt.Sprintf("(%d jobs)", len(plain.records)))
	rep.metric("heap_live_mb", e2e["heap_live_mb"], "MB", "(manager reachable, after the timed phase)")
	out.e2e = e2e
	if !opt.trace {
		return out
	}

	traced := runs[1]
	lt := traced.spans.totals()
	var deduped, shed float64
	for _, r := range traced.records {
		if r.deduped {
			deduped++
		}
		if r.shed {
			shed++
		}
	}
	n := float64(len(traced.records))
	tracedE2E := serveE2E(traced)
	out.layers = map[string]float64{
		"jobs.submit_ms_p50":     percentile(lt.durs["jobs.submit"], 50),
		"jobs.submit_ms_p90":     percentile(lt.durs["jobs.submit"], 90),
		"jobs.queue_wait_ms_p50": percentile(lt.durs["jobs.queue_wait"], 50),
		"jobs.queue_wait_ms_p90": percentile(lt.durs["jobs.queue_wait"], 90),
		"jobs.run_ms_p50":        percentile(lt.durs["jobs.run"], 50),
		"jobs.run_ms_p90":        percentile(lt.durs["jobs.run"], 90),
		"jobs.artifact_ms_p50":   percentile(lt.durs["jobs.artifact"], 50),
		"jobs.dedupe_ratio":      ratio(deduped, n),
		"jobs.shed_ratio":        ratio(shed, n),
		"tracing.overhead_ratio": ratio(e2e["ops_per_s"], tracedE2E["ops_per_s"]) - 1,
		"tracing.spans_per_op":   ratio(float64(len(traced.spans)), n),
	}
	rep.line("traced: %d jobs, %.6g jobs/s vs %.6g untraced", len(traced.records), tracedE2E["ops_per_s"], e2e["ops_per_s"])
	out.spans = traced.spans
	return out
}

func latenciesMs(records []jobRecord) []float64 {
	ms := make([]float64, len(records))
	for i, r := range records {
		ms[i] = msOf(r.latency)
	}
	return ms
}

// serveE2E reduces a phase to the end-to-end metrics other than setup_s:
// an op is one job whose artifact was fetched.
func serveE2E(p servePhase) map[string]float64 {
	n := float64(len(p.records))
	lat := latenciesMs(p.records)
	return map[string]float64{
		"ops_per_s":          n / p.phase.wall.Seconds(),
		"op_latency_p50_ms":  percentile(lat, 50),
		"op_latency_p90_ms":  percentile(lat, 90),
		"allocs_per_op":      ratio(float64(p.phase.mallocs), n),
		"alloc_bytes_per_op": ratio(float64(p.phase.heap), n),
		"heap_live_mb":       p.heapMB,
	}
}
