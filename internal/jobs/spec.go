// Package jobs is the simulation-as-a-service layer: typed job specs with a
// canonical encoding, a bounded FIFO queue with load shedding, a worker pool
// whose sweeps draw from one global parallelism budget, per-job cancellation
// and deadlines, a result cache that dedupes identical submissions to a
// single execution, and an ordered per-job progress-event stream.
//
// The contract that makes it more than plumbing: a job's report artifact is
// byte-identical to the stdout of the equivalent mdxbench/mdxfault CLI run
// for the same spec, at any worker-pool width — the repository's determinism
// guarantee extended across the network boundary. The differential tests pin
// it end to end.
package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"sr2201/internal/campaign"
	"sr2201/internal/cliutil"
	"sr2201/internal/core"
	"sr2201/internal/experiments"
	"sr2201/internal/geom"
)

// Kind selects what a job runs.
type Kind string

const (
	// KindExperiments runs a set of registered experiments (mdxbench).
	KindExperiments Kind = "experiments"
	// KindFault runs one scheduled-fault machine (mdxfault single mode).
	KindFault Kind = "fault"
	// KindCampaign runs the exhaustive single-fault campaign (mdxfault
	// -campaign).
	KindCampaign Kind = "campaign"
)

// Spec is a job submission. Exactly one payload — matching Kind — is set.
// The zero values of optional numeric fields select the CLI defaults, so a
// spec that spells only what a CLI invocation spelled canonicalizes to the
// same execution.
type Spec struct {
	Kind        Kind             `json:"kind"`
	Experiments *ExperimentsSpec `json:"experiments,omitempty"`
	Fault       *FaultSpec       `json:"fault,omitempty"`
	Campaign    *CampaignSpec    `json:"campaign,omitempty"`
}

// ExperimentsSpec mirrors mdxbench: which experiments, at which scale.
type ExperimentsSpec struct {
	// IDs lists experiment ids (case-insensitive), or the single keyword
	// "all".
	IDs []string `json:"ids"`
	// Quick selects the reduced CI-scale sweeps (mdxbench -quick).
	Quick bool `json:"quick,omitempty"`
}

// InjectSpec mirrors mdxfault's retransmission flags.
type InjectSpec struct {
	Retransmit bool  `json:"retransmit,omitempty"`
	RetryAfter int64 `json:"retry_after,omitempty"`
	Backoff    int   `json:"backoff,omitempty"`
	MaxRetries int   `json:"max_retries,omitempty"`
	Stall      int64 `json:"stall,omitempty"`
}

// RecoverySpec mirrors mdxfault's -recover flag triple: the deadlock-recovery
// liveness layer.
type RecoverySpec struct {
	Enabled        bool  `json:"enabled,omitempty"`
	StallThreshold int64 `json:"stall_threshold,omitempty"`
	MaxRecoveries  int   `json:"max_recoveries,omitempty"`
}

// ReconfigSpec mirrors mdxfault's -reconfig flag pair: online routing-table
// reconfiguration around mid-run faults (internal/reconfig). The zero value
// disables it.
type ReconfigSpec struct {
	// Mode is the trigger: "fault", "deadlock" or "both" ("" = off).
	Mode string `json:"mode,omitempty"`
	// DrainBudget caps the in-flight packets a cyclic transition may purge
	// before falling back to rebuild-in-place (0 = the package default).
	DrainBudget int `json:"drain_budget,omitempty"`
}

// VariantSpec selects the crossbar design under test (mdxfault's -sxb /
// -dxb / -dxb-separate / -vcs / -adaptive). The zero value is the default
// deadlock-free D-XB = S-XB design on a single-lane network.
type VariantSpec struct {
	SXB         string `json:"sxb,omitempty"`
	DXB         string `json:"dxb,omitempty"`
	DXBSeparate bool   `json:"dxb_separate,omitempty"`
	// VCs is the virtual-channel count per physical wire (0 and 1 are the
	// single-lane network); counts above 1 require Adaptive.
	VCs int `json:"vcs,omitempty"`
	// Adaptive turns on escape-VC adaptive routing (requires VCs >= 2 and
	// the unified design: no dxb_separate).
	Adaptive bool `json:"adaptive,omitempty"`
}

// FaultSpec mirrors mdxfault single mode: one machine, a scheduled fault
// sequence, one traffic pattern.
type FaultSpec struct {
	Shape string `json:"shape"`
	// Topology selects the interconnect (mdxfault -topo): "" or "mdx" is
	// the MD crossbar (canonicalized to ""), "hyperx" and "fullmesh" the
	// direct-link lattices. Crossbar-only features (xb: faults, broadcasts,
	// the variant block) are rejected on direct-link topologies; link:
	// faults are rejected on the MD crossbar.
	Topology string `json:"topology,omitempty"`
	// Fails lists fault schedules, e.g. "rtc:3,4@500", "xb:0:0,2@200" or
	// "link:0,0-3,0@400".
	Fails []string `json:"fails,omitempty"`
	// Presets lists faults installed before any traffic, e.g. "rtc:2,1".
	Presets []string `json:"presets,omitempty"`
	// Broadcasts lists broadcast schedules, e.g. "3,2@250".
	Broadcasts []string `json:"broadcasts,omitempty"`
	// Pattern is "shift+K", "reverse" or "pair:SRC>DST".
	Pattern    string       `json:"pattern"`
	Waves      int          `json:"waves,omitempty"`
	Gap        int64        `json:"gap,omitempty"`
	PacketSize int          `json:"packet_size,omitempty"`
	Horizon    int64        `json:"horizon,omitempty"`
	Inject     InjectSpec   `json:"inject,omitempty"`
	Recovery   RecoverySpec `json:"recovery,omitempty"`
	Variant    VariantSpec  `json:"variant,omitempty"`
	Reconfig   ReconfigSpec `json:"reconfig,omitempty"`
}

// CampaignSpec mirrors mdxfault -campaign: the exhaustive placement grid.
type CampaignSpec struct {
	Shape string `json:"shape"`
	// Topology selects every cell's interconnect and the placement grid
	// (see FaultSpec.Topology and campaign.PlacementsFor).
	Topology   string       `json:"topology,omitempty"`
	Epochs     []int64      `json:"epochs"`
	Patterns   []string     `json:"patterns"`
	Presets    []string     `json:"presets,omitempty"`
	Broadcasts []string     `json:"broadcasts,omitempty"`
	Waves      int          `json:"waves,omitempty"`
	Gap        int64        `json:"gap,omitempty"`
	PacketSize int          `json:"packet_size,omitempty"`
	Horizon    int64        `json:"horizon,omitempty"`
	Inject     InjectSpec   `json:"inject,omitempty"`
	Recovery   RecoverySpec `json:"recovery,omitempty"`
	Variant    VariantSpec  `json:"variant,omitempty"`
	Reconfig   ReconfigSpec `json:"reconfig,omitempty"`
}

// Clone returns a deep copy sharing no memory with s, so normalizing the
// copy never mutates the caller's value. Submit clones internally, making
// concurrent submissions of one shared Spec safe.
func (s Spec) Clone() Spec {
	out := s
	if s.Experiments != nil {
		e := *s.Experiments
		e.IDs = append([]string(nil), s.Experiments.IDs...)
		out.Experiments = &e
	}
	if s.Fault != nil {
		f := *s.Fault
		f.Fails = append([]string(nil), s.Fault.Fails...)
		f.Presets = append([]string(nil), s.Fault.Presets...)
		f.Broadcasts = append([]string(nil), s.Fault.Broadcasts...)
		out.Fault = &f
	}
	if s.Campaign != nil {
		c := *s.Campaign
		c.Epochs = append([]int64(nil), s.Campaign.Epochs...)
		c.Patterns = append([]string(nil), s.Campaign.Patterns...)
		c.Presets = append([]string(nil), s.Campaign.Presets...)
		c.Broadcasts = append([]string(nil), s.Campaign.Broadcasts...)
		out.Campaign = &c
	}
	return out
}

// FieldError is a validation rejection. Every invalid spec is rejected with
// one, naming the offending field — the fuzz suite holds the decoder to
// that.
type FieldError struct {
	Field string
	Msg   string
}

func (e *FieldError) Error() string { return fmt.Sprintf("jobs: field %q: %s", e.Field, e.Msg) }

func fieldErrf(field, format string, args ...any) error {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Resource ceilings: a public endpoint must bound what one spec may demand.
const (
	maxIDs         = 64
	maxFails       = 64
	maxEpochs      = 64
	maxPatterns    = 16
	maxExtent      = 64
	maxPEs         = 4096
	maxCampaignPEs = 1024
	maxWaves       = 1 << 20
	maxGap         = 1 << 20
	maxPacket      = 4096
	maxHorizon     = 1 << 30
	maxRetry       = 1 << 20
	maxBackoffMul  = 64
	maxRetries     = 64
	maxStall       = 1 << 20
	maxPresets     = 64
	maxBroadcasts  = 64
	maxRecoverCap  = 64
	maxVCs         = 8
	maxDrainBudget = 1 << 20
)

// DecodeSpec parses and validates a JSON submission. Unknown fields,
// trailing data, type mismatches, and semantic violations are all rejected
// with a *FieldError; a successfully decoded spec is already normalized
// (defaults applied, ids and spellings canonicalized).
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, decodeError(err)
	}
	if dec.More() {
		return Spec{}, fieldErrf("body", "trailing data after the spec object")
	}
	if err := s.Normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// decodeError converts an encoding/json error into a FieldError naming the
// most precise field the library reports.
func decodeError(err error) error {
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) && typeErr.Field != "" {
		return fieldErrf(typeErr.Field, "cannot decode %s into %s", typeErr.Value, typeErr.Type)
	}
	// DisallowUnknownFields reports `json: unknown field "name"`.
	if msg := err.Error(); strings.HasPrefix(msg, "json: unknown field ") {
		name := strings.Trim(strings.TrimPrefix(msg, "json: unknown field "), "\"")
		if name == "" {
			name = "body"
		}
		return fieldErrf(name, "unknown field")
	}
	return fieldErrf("body", "invalid JSON: %v", err)
}

// Normalize validates the spec in place and rewrites it to canonical form:
// defaults applied, ids uppercased, spellings trimmed. Every rejection is a
// *FieldError. After Normalize, Canonical() is the spec's identity.
func (s *Spec) Normalize() error {
	switch s.Kind {
	case KindExperiments, KindFault, KindCampaign:
	case "":
		return fieldErrf("kind", "missing (experiments | fault | campaign)")
	default:
		return fieldErrf("kind", "unknown kind %q (experiments | fault | campaign)", s.Kind)
	}
	if got := map[Kind]bool{
		KindExperiments: s.Experiments != nil,
		KindFault:       s.Fault != nil,
		KindCampaign:    s.Campaign != nil,
	}; !got[s.Kind] {
		return fieldErrf(string(s.Kind), "kind %q needs its %q payload", s.Kind, s.Kind)
	}
	if s.Experiments != nil && s.Kind != KindExperiments {
		return fieldErrf("experiments", "payload does not match kind %q", s.Kind)
	}
	if s.Fault != nil && s.Kind != KindFault {
		return fieldErrf("fault", "payload does not match kind %q", s.Kind)
	}
	if s.Campaign != nil && s.Kind != KindCampaign {
		return fieldErrf("campaign", "payload does not match kind %q", s.Kind)
	}
	switch s.Kind {
	case KindExperiments:
		return s.Experiments.normalize()
	case KindFault:
		return s.Fault.normalize()
	default:
		return s.Campaign.normalize()
	}
}

// Canonical returns the canonical encoding of a normalized spec: its
// deterministic JSON. Two submissions with equal canonical encodings are
// the same job and dedupe to one execution.
func (s *Spec) Canonical() string {
	b, err := json.Marshal(s)
	if err != nil {
		// A normalized spec is always marshalable; this is unreachable.
		panic(fmt.Sprintf("jobs: canonical encoding: %v", err))
	}
	return string(b)
}

func (e *ExperimentsSpec) normalize() error {
	if len(e.IDs) == 0 {
		return fieldErrf("experiments.ids", "needs at least one experiment id")
	}
	if len(e.IDs) > maxIDs {
		return fieldErrf("experiments.ids", "%d ids exceeds maximum %d", len(e.IDs), maxIDs)
	}
	if len(e.IDs) == 1 && strings.EqualFold(strings.TrimSpace(e.IDs[0]), "all") {
		e.IDs = []string{"all"}
		return nil
	}
	canon := make([]string, len(e.IDs))
	for i, id := range e.IDs {
		id = strings.ToUpper(strings.TrimSpace(id))
		if _, ok := experiments.ByID(id); !ok {
			return fieldErrf(fmt.Sprintf("experiments.ids[%d]", i), "unknown experiment %q", e.IDs[i])
		}
		canon[i] = id
	}
	e.IDs = canon
	return nil
}

// parseShape validates a shape string under the service ceilings.
func parseShape(field, s string, maxSize int) (geom.Shape, error) {
	shape, err := cliutil.ParseShape(strings.TrimSpace(s))
	if err != nil {
		return nil, fieldErrf(field, "%v", err)
	}
	size := 1
	for _, e := range shape {
		if e > maxExtent {
			return nil, fieldErrf(field, "extent %d exceeds maximum %d", e, maxExtent)
		}
		size *= e
	}
	if size > maxSize {
		return nil, fieldErrf(field, "%d PEs exceeds maximum %d", size, maxSize)
	}
	return shape, nil
}

// normalizeTopology canonicalizes a spec's topology name and checks the
// shape against the topology's constructor requirements, so a spec the
// service accepts is one the machine builder accepts too. The default MD
// crossbar canonicalizes to "" (so "mdx" and an absent field dedupe to the
// same job).
func normalizeTopology(field string, topo *string, shape geom.Shape) error {
	t, err := cliutil.ParseTopology(*topo)
	if err != nil {
		return fieldErrf(field, "%v", err)
	}
	if t == core.TopologyMDX {
		*topo = ""
		return nil
	}
	if t == core.TopologyFullMesh && shape.Dims() != 1 {
		return fieldErrf(field, "fullmesh needs a one-dimensional shape, got %s", shape)
	}
	for k, e := range shape {
		if e < 2 {
			return fieldErrf(field, "topology %q needs every extent at least 2, got extent[%d]=%d", t, k, e)
		}
	}
	*topo = t
	return nil
}

// normalizeCommon checks the wave/gap/packet/horizon block shared by fault
// and campaign specs, applying the CLI defaults for zero values.
func normalizeCommon(prefix string, waves *int, gap *int64, packet *int, horizon *int64) error {
	switch {
	case *waves < 0:
		return fieldErrf(prefix+".waves", "must be non-negative")
	case *waves == 0:
		*waves = 4
	case *waves > maxWaves:
		return fieldErrf(prefix+".waves", "%d exceeds maximum %d", *waves, maxWaves)
	}
	switch {
	case *gap < 0:
		return fieldErrf(prefix+".gap", "must be non-negative")
	case *gap == 0:
		*gap = 24
	case *gap > maxGap:
		return fieldErrf(prefix+".gap", "%d exceeds maximum %d", *gap, maxGap)
	}
	if *packet < 0 || *packet > maxPacket {
		return fieldErrf(prefix+".packet_size", "must be in [0, %d]", maxPacket)
	}
	switch {
	case *horizon < 0:
		return fieldErrf(prefix+".horizon", "must be non-negative")
	case *horizon == 0:
		*horizon = 50_000
	case *horizon > maxHorizon:
		return fieldErrf(prefix+".horizon", "%d exceeds maximum %d", *horizon, maxHorizon)
	}
	return nil
}

func (in *InjectSpec) normalize(prefix string) error {
	if in.RetryAfter < 0 || in.RetryAfter > maxRetry {
		return fieldErrf(prefix+".inject.retry_after", "must be in [0, %d]", maxRetry)
	}
	if in.Backoff < 0 || in.Backoff > maxBackoffMul {
		return fieldErrf(prefix+".inject.backoff", "must be in [0, %d]", maxBackoffMul)
	}
	if in.MaxRetries < 0 || in.MaxRetries > maxRetries {
		return fieldErrf(prefix+".inject.max_retries", "must be in [0, %d]", maxRetries)
	}
	if in.Stall < 0 || in.Stall > maxStall {
		return fieldErrf(prefix+".inject.stall", "must be in [0, %d]", maxStall)
	}
	if in.Retransmit {
		// The mdxfault flag defaults, applied only when retransmission is on
		// (they are inert otherwise and stay as submitted).
		if in.RetryAfter == 0 {
			in.RetryAfter = 64
		}
		if in.Backoff == 0 {
			in.Backoff = 2
		}
		if in.MaxRetries == 0 {
			in.MaxRetries = 4
		}
	}
	return nil
}

func (r *RecoverySpec) normalize(prefix string) error {
	if r.StallThreshold > maxStall {
		return fieldErrf(prefix+".recovery.stall_threshold", "%d exceeds maximum %d", r.StallThreshold, maxStall)
	}
	if r.MaxRecoveries > maxRecoverCap {
		return fieldErrf(prefix+".recovery.max_recoveries", "%d exceeds maximum %d", r.MaxRecoveries, maxRecoverCap)
	}
	// cliutil rejects negatives and tuning-without-enable, so a spec that
	// silently does nothing is refused the same way the CLI refuses it.
	if _, err := cliutil.RecoveryOptions(r.Enabled, r.StallThreshold, r.MaxRecoveries); err != nil {
		return fieldErrf(prefix+".recovery", "%v", err)
	}
	return nil
}

func (r *ReconfigSpec) normalize(prefix, topology string, variant *VariantSpec) error {
	if r.DrainBudget > maxDrainBudget {
		return fieldErrf(prefix+".reconfig.drain_budget", "%d exceeds maximum %d", r.DrainBudget, maxDrainBudget)
	}
	// cliutil rejects unknown modes, negative budgets and a budget without
	// the mode — the same refusals the CLI flags produce.
	mode, budget, err := cliutil.ReconfigOptions(r.Mode, r.DrainBudget)
	if err != nil {
		return fieldErrf(prefix+".reconfig", "%v", err)
	}
	if mode == "" {
		r.Mode = ""
		return nil
	}
	if topology != "" {
		return fieldErrf(prefix+".reconfig.mode", "topology %q has no reconfigurable table generations (mdx-only)", topology)
	}
	if variant.VCs != 0 || variant.Adaptive {
		return fieldErrf(prefix+".reconfig.mode", "reconfiguration needs the single-lane network (drop variant.vcs/adaptive)")
	}
	r.Mode, r.DrainBudget = mode, budget
	return nil
}

func (v *VariantSpec) normalize(prefix string, shape geom.Shape, topology string) error {
	v.SXB = strings.TrimSpace(v.SXB)
	v.DXB = strings.TrimSpace(v.DXB)
	if topology != "" && (v.SXB != "" || v.DXB != "" || v.DXBSeparate || v.VCs != 0 || v.Adaptive) {
		return fieldErrf(prefix+".variant", "topology %q has no crossbars to configure (the variant block is mdx-only)", topology)
	}
	if v.VCs > maxVCs {
		return fieldErrf(prefix+".variant.vcs", "%d exceeds maximum %d", v.VCs, maxVCs)
	}
	if v.Adaptive && v.DXBSeparate {
		return fieldErrf(prefix+".variant.adaptive", "needs the unified design (the escape lane's deadlock-freedom certificate assumes D-XB = S-XB; drop dxb_separate)")
	}
	// cliutil rejects negative counts, adaptive without lanes, and lanes
	// without adaptive — the same refusals the CLI flags produce.
	vcs, err := cliutil.VCOptions(v.VCs, v.Adaptive)
	if err != nil {
		return fieldErrf(prefix+".variant.vcs", "%v", err)
	}
	// An explicit single-lane count canonicalizes to the absent field, so
	// "vcs": 1 and an unset count dedupe to the same job.
	if vcs == 1 {
		v.VCs = 0
	} else {
		v.VCs = vcs
	}
	if v.SXB != "" {
		c, err := cliutil.ParseCoord(v.SXB, shape.Dims())
		if err != nil {
			return fieldErrf(prefix+".variant.sxb", "%v", err)
		}
		if !shape.Contains(c) {
			return fieldErrf(prefix+".variant.sxb", "coordinate %q outside shape", v.SXB)
		}
	}
	if v.DXB != "" {
		if !v.DXBSeparate {
			return fieldErrf(prefix+".variant.dxb", "needs dxb_separate (the unified design has no second crossbar)")
		}
		c, err := cliutil.ParseCoord(v.DXB, shape.Dims())
		if err != nil {
			return fieldErrf(prefix+".variant.dxb", "%v", err)
		}
		if !shape.Contains(c) {
			return fieldErrf(prefix+".variant.dxb", "coordinate %q outside shape", v.DXB)
		}
	}
	return nil
}

// normalizeWorkload validates the preset-fault and broadcast lists shared by
// fault and campaign specs against the shape and topology.
func normalizeWorkload(prefix string, shape geom.Shape, topology string, presets, broadcasts []string) error {
	if len(presets) > maxPresets {
		return fieldErrf(prefix+".presets", "%d presets exceeds maximum %d", len(presets), maxPresets)
	}
	for i, ps := range presets {
		presets[i] = strings.TrimSpace(ps)
		f, err := cliutil.ParseFaultIn(presets[i], shape)
		if err != nil {
			return fieldErrf(fmt.Sprintf("%s.presets[%d]", prefix, i), "%v", err)
		}
		if err := cliutil.CheckFaultTopology(f, topology); err != nil {
			return fieldErrf(fmt.Sprintf("%s.presets[%d]", prefix, i), "%v", err)
		}
	}
	if len(broadcasts) > maxBroadcasts {
		return fieldErrf(prefix+".broadcasts", "%d broadcasts exceeds maximum %d", len(broadcasts), maxBroadcasts)
	}
	if topology != "" && len(broadcasts) > 0 {
		return fieldErrf(prefix+".broadcasts", "topology %q has no hardware broadcast (mdx-only)", topology)
	}
	for i, bs := range broadcasts {
		broadcasts[i] = strings.TrimSpace(bs)
		if _, _, err := cliutil.ParseBroadcast(broadcasts[i], shape); err != nil {
			return fieldErrf(fmt.Sprintf("%s.broadcasts[%d]", prefix, i), "%v", err)
		}
	}
	return nil
}

func (f *FaultSpec) normalize() error {
	shape, err := parseShape("fault.shape", f.Shape, maxPEs)
	if err != nil {
		return err
	}
	f.Shape = shape.String()
	if err := normalizeTopology("fault.topology", &f.Topology, shape); err != nil {
		return err
	}
	if len(f.Fails) == 0 && len(f.Presets) == 0 && len(f.Broadcasts) == 0 {
		return fieldErrf("fault.fails", "needs a FAULT@CYCLE schedule, a preset fault or a broadcast")
	}
	if len(f.Fails) > maxFails {
		return fieldErrf("fault.fails", "%d schedules exceeds maximum %d", len(f.Fails), maxFails)
	}
	for i, fs := range f.Fails {
		fs = strings.TrimSpace(fs)
		flt, _, err := cliutil.ParseScheduledFault(fs, shape)
		if err != nil {
			return fieldErrf(fmt.Sprintf("fault.fails[%d]", i), "%v", err)
		}
		if err := cliutil.CheckFaultTopology(flt, f.Topology); err != nil {
			return fieldErrf(fmt.Sprintf("fault.fails[%d]", i), "%v", err)
		}
		f.Fails[i] = fs
	}
	if err := normalizeWorkload("fault", shape, f.Topology, f.Presets, f.Broadcasts); err != nil {
		return err
	}
	f.Pattern = strings.TrimSpace(f.Pattern)
	if _, err := campaign.ParsePattern(f.Pattern); err != nil {
		return fieldErrf("fault.pattern", "%v", err)
	}
	if err := normalizeCommon("fault", &f.Waves, &f.Gap, &f.PacketSize, &f.Horizon); err != nil {
		return err
	}
	if err := f.Recovery.normalize("fault"); err != nil {
		return err
	}
	if err := f.Variant.normalize("fault", shape, f.Topology); err != nil {
		return err
	}
	if err := f.Reconfig.normalize("fault", f.Topology, &f.Variant); err != nil {
		return err
	}
	return f.Inject.normalize("fault")
}

func (c *CampaignSpec) normalize() error {
	shape, err := parseShape("campaign.shape", c.Shape, maxCampaignPEs)
	if err != nil {
		return err
	}
	c.Shape = shape.String()
	if err := normalizeTopology("campaign.topology", &c.Topology, shape); err != nil {
		return err
	}
	if len(c.Epochs) == 0 {
		return fieldErrf("campaign.epochs", "needs at least one activation cycle")
	}
	if len(c.Epochs) > maxEpochs {
		return fieldErrf("campaign.epochs", "%d epochs exceeds maximum %d", len(c.Epochs), maxEpochs)
	}
	for i, e := range c.Epochs {
		if e < 0 || e > maxHorizon {
			return fieldErrf(fmt.Sprintf("campaign.epochs[%d]", i), "must be in [0, %d]", maxHorizon)
		}
	}
	if len(c.Patterns) == 0 {
		return fieldErrf("campaign.patterns", "needs at least one pattern")
	}
	if len(c.Patterns) > maxPatterns {
		return fieldErrf("campaign.patterns", "%d patterns exceeds maximum %d", len(c.Patterns), maxPatterns)
	}
	for i, p := range c.Patterns {
		p = strings.TrimSpace(p)
		if _, err := campaign.ParsePattern(p); err != nil {
			return fieldErrf(fmt.Sprintf("campaign.patterns[%d]", i), "%v", err)
		}
		c.Patterns[i] = p
	}
	if err := normalizeWorkload("campaign", shape, c.Topology, c.Presets, c.Broadcasts); err != nil {
		return err
	}
	if err := normalizeCommon("campaign", &c.Waves, &c.Gap, &c.PacketSize, &c.Horizon); err != nil {
		return err
	}
	if err := c.Recovery.normalize("campaign"); err != nil {
		return err
	}
	if err := c.Variant.normalize("campaign", shape, c.Topology); err != nil {
		return err
	}
	if err := c.Reconfig.normalize("campaign", c.Topology, &c.Variant); err != nil {
		return err
	}
	return c.Inject.normalize("campaign")
}

// ReadSpec decodes a spec from a reader (the HTTP body), bounding the read.
func ReadSpec(r io.Reader, limit int64) (Spec, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return Spec{}, fieldErrf("body", "read: %v", err)
	}
	if int64(len(data)) > limit {
		return Spec{}, fieldErrf("body", "spec exceeds %d bytes", limit)
	}
	return DecodeSpec(data)
}
