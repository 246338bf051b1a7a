// Command mdxfault runs dynamic-fault schedules. In single mode it drives
// one machine with a scheduled mid-run fault (or several), reporting the
// in-flight casualties of every event and the retransmission accounting. In
// campaign mode it runs the exhaustive resilience campaign: every
// single-fault placement × injection epoch × traffic pattern, aggregated
// into the availability coverage table. Campaign output is byte-identical
// at every -parallel level.
//
// Both modes render through the shared runners in internal/campaign, so the
// stdout of an mdxfault run is byte-identical to the artifact the mdxserve
// job server produces for the same spec.
//
// Examples:
//
//	mdxfault -shape 8x8 -fail rtc:3,4@500 -waves 6 -retransmit
//	mdxfault -shape 4x4 -fail xb:0:0,2@200 -fail rtc:1,1@400
//	mdxfault -shape 8x8 -campaign -epochs 12,60 -patterns shift+5,reverse -retransmit
//	mdxfault -shape 4x4 -dxb-separate -preset rtc:2,1 -patterns pair:0,1>2,2 \
//	  -broadcast 3,2@0 -retransmit -retry-after 32 -recover
//	mdxfault -shape 4x4 -topo hyperx -fail link:0,0-3,0@200 -retransmit
//	mdxfault -shape 8 -topo fullmesh -campaign -epochs 12 -patterns shift+3
package main

import (
	"flag"
	"fmt"
	"os"

	"sr2201/internal/campaign"
	"sr2201/internal/cliutil"
	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/sweep"
)

func main() {
	var (
		shapeStr   = flag.String("shape", "8x8", "lattice shape, e.g. 8x8 or 4x4x4")
		topoStr    = flag.String("topo", "", "interconnect topology: mdx | hyperx | fullmesh (default mdx)")
		doCampaign = flag.Bool("campaign", false, "run the exhaustive single-fault campaign instead of one schedule")
		epochsStr  = flag.String("epochs", "12", "campaign fault-activation cycles, comma-separated")
		patsStr    = flag.String("patterns", "shift+5", "traffic patterns, comma-separated: shift+K | reverse")
		waves      = flag.Int("waves", 4, "traffic waves (one packet per live PE per wave)")
		gap        = flag.Int64("gap", 24, "cycles between waves")
		packet     = flag.Int("packet", 0, "packet size in flits (0 = default)")
		retransmit = flag.Bool("retransmit", false, "retransmit lost packets from their sources")
		retryAfter = flag.Int64("retry-after", 64, "cycles before the first retransmission")
		backoff    = flag.Int("backoff", 2, "timeout multiplier per further attempt")
		maxRetries = flag.Int("max-retries", 4, "retransmission attempts per packet")
		horizon    = flag.Int64("horizon", 50_000, "cycle budget per run")
		stall      = flag.Int64("stall", 0, "deadlock-watchdog stall threshold (0 = default)")
		parallel   = flag.Int("parallel", sweep.DefaultParallel(), "campaign worker-pool width (1 = serial)")
		stateDir   = flag.String("state-dir", "", "campaign checkpoint directory: completed cells persist and are skipped on re-run (campaign mode)")
		ckptEvery  = flag.Int64("checkpoint-every", 4096, "mid-cell snapshot interval in cycles (with -state-dir; 0 = cell granularity only)")

		doRecover  = flag.Bool("recover", false, "enable deadlock recovery: purge the lowest-ID packet on a confirmed wait cycle and retransmit it")
		recStall   = flag.Int64("stall-threshold", 0, "recovery-watchdog zero-movement cycles before a purge (with -recover; 0 = default)")
		recMax     = flag.Int("max-recoveries", 0, "per-packet sacrifice cap before the LIVELOCK verdict (with -recover; 0 = default)")
		sxbStr     = flag.String("sxb", "", "static-routing crossbar coordinate, e.g. 0,0 (empty = default)")
		dxbStr     = flag.String("dxb", "", "detour crossbar coordinate (with -dxb-separate; empty = default)")
		dxbSep     = flag.Bool("dxb-separate", false, "use a separate detour crossbar (the paper's deadlocking D-XB != S-XB design)")
		vcs        = flag.Int("vcs", 0, "virtual channels per physical wire (with -adaptive; 0 = single-lane network)")
		adaptive   = flag.Bool("adaptive", false, "escape-VC adaptive routing: lanes 1.. take any minimal productive hop, lane 0 is the certified escape channel (needs -vcs >= 2)")
		reconfig   = flag.String("reconfig", "", "online routing-table reconfiguration trigger: fault | deadlock | both (empty = off)")
		recfgDrain = flag.Int("reconfig-drain", 0, "max in-flight packets a cyclic transition may purge before falling back to rebuild-in-place (with -reconfig; 0 = default)")
		fails      failList
		presets    failList
		broadcasts failList
	)
	flag.Var(&fails, "fail", "fault schedule rtc:X,Y@CYCLE or xb:DIM:X,Y@CYCLE (repeatable; single mode)")
	flag.Var(&presets, "preset", "fault installed before any traffic, rtc:X,Y or xb:DIM:X,Y (repeatable)")
	flag.Var(&broadcasts, "broadcast", "broadcast schedule X,Y@CYCLE (repeatable)")
	flag.Parse()

	shape, err := cliutil.ParseShape(*shapeStr)
	if err != nil {
		fatal(err)
	}
	topology, err := cliutil.ParseTopology(*topoStr)
	if err != nil {
		fatal(err)
	}
	if topology != core.TopologyMDX {
		switch {
		case *sxbStr != "" || *dxbStr != "" || *dxbSep:
			fatal(fmt.Errorf("-sxb/-dxb/-dxb-separate configure crossbars; topology %q has none", topology))
		case *vcs != 0 || *adaptive:
			fatal(fmt.Errorf("-vcs/-adaptive need the mdx crossbar network; topology %q has no VC layer", topology))
		case *reconfig != "":
			fatal(fmt.Errorf("-reconfig needs the mdx crossbar network; topology %q has no reconfigurable table generations", topology))
		case len(broadcasts) > 0:
			fatal(fmt.Errorf("-broadcast needs the mdx hardware broadcast; topology %q has none", topology))
		}
	}
	opt := inject.Options{
		Retransmit:     *retransmit,
		RetryAfter:     *retryAfter,
		Backoff:        *backoff,
		MaxRetries:     *maxRetries,
		StallThreshold: *stall,
	}
	patterns, err := campaign.ParsePatterns(*patsStr)
	if err != nil {
		fatal(err)
	}
	recOpt, err := cliutil.RecoveryOptions(*doRecover, *recStall, *recMax)
	if err != nil {
		fatal(err)
	}
	vcCount, err := cliutil.VCOptions(*vcs, *adaptive)
	if err != nil {
		fatal(err)
	}
	recfgMode, recfgBudget, err := cliutil.ReconfigOptions(*reconfig, *recfgDrain)
	if err != nil {
		fatal(err)
	}
	if *adaptive && *dxbSep {
		fatal(fmt.Errorf("-adaptive needs the unified design (the escape lane's certificate assumes D-XB = S-XB; drop -dxb-separate)"))
	}
	var sxb, dxb geom.Coord
	if *sxbStr != "" {
		if sxb, err = cliutil.ParseCoord(*sxbStr, shape.Dims()); err != nil {
			fatal(err)
		}
	}
	if *dxbStr != "" {
		if !*dxbSep {
			fatal(fmt.Errorf("-dxb needs -dxb-separate (the unified design has no second crossbar)"))
		}
		if dxb, err = cliutil.ParseCoord(*dxbStr, shape.Dims()); err != nil {
			fatal(err)
		}
	}
	var presetFaults []fault.Fault
	for _, ps := range presets {
		f, err := cliutil.ParseFaultIn(ps, shape)
		if err != nil {
			fatal(err)
		}
		if err := cliutil.CheckFaultTopology(f, topology); err != nil {
			fatal(err)
		}
		presetFaults = append(presetFaults, f)
	}
	var bcasts []campaign.Broadcast
	for _, bs := range broadcasts {
		src, cycle, err := cliutil.ParseBroadcast(bs, shape)
		if err != nil {
			fatal(err)
		}
		bcasts = append(bcasts, campaign.Broadcast{Cycle: cycle, Src: src, Size: *packet})
	}

	if *doCampaign {
		if len(fails) > 0 {
			fatal(fmt.Errorf("-fail selects single mode; a campaign enumerates every placement itself"))
		}
		epochs, err := campaign.ParseEpochs(*epochsStr)
		if err != nil {
			fatal(err)
		}
		var store *campaign.Store
		if *stateDir != "" {
			if store, err = campaign.OpenStore(*stateDir); err != nil {
				fatal(err)
			}
		}
		res, err := campaign.Run(campaign.Config{
			Shape:               shape,
			Topology:            topology,
			Epochs:              epochs,
			Patterns:            patterns,
			Waves:               *waves,
			Gap:                 *gap,
			PacketSize:          *packet,
			Inject:              opt,
			Horizon:             *horizon,
			Recovery:            recOpt,
			Preset:              presetFaults,
			Broadcasts:          bcasts,
			SXB:                 sxb,
			DXB:                 dxb,
			DXBSeparate:         *dxbSep,
			VCs:                 vcCount,
			Adaptive:            *adaptive,
			Reconfig:            recfgMode,
			ReconfigDrainBudget: recfgBudget,
			Parallel:            *parallel,
			Store:               store,
			CheckpointEvery:     *ckptEvery,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.String())
		if res.Deadlocks() > 0 || res.Stalls() > 0 || res.Livelocked() > 0 {
			os.Exit(1)
		}
		return
	}

	if len(fails) == 0 && len(presetFaults) == 0 && len(bcasts) == 0 {
		fatal(fmt.Errorf("single mode needs a -fail schedule, -preset fault or -broadcast (or use -campaign)"))
	}
	if *stateDir != "" {
		fatal(fmt.Errorf("-state-dir applies to campaign mode"))
	}
	if len(patterns) != 1 {
		fatal(fmt.Errorf("single mode takes exactly one pattern"))
	}
	events := make([]inject.Event, 0, len(fails))
	for _, fs := range fails {
		f, cycle, err := cliutil.ParseScheduledFault(fs, shape)
		if err != nil {
			fatal(err)
		}
		if err := cliutil.CheckFaultTopology(f, topology); err != nil {
			fatal(err)
		}
		events = append(events, inject.Event{Cycle: cycle, Fault: f})
	}
	outcome, err := campaign.RunSingle(campaign.SingleSpec{
		Shape:               shape,
		Topology:            topology,
		Events:              events,
		Pattern:             patterns[0],
		Waves:               *waves,
		Gap:                 *gap,
		PacketSize:          *packet,
		Horizon:             *horizon,
		Inject:              opt,
		Recovery:            recOpt,
		Preset:              presetFaults,
		Broadcasts:          bcasts,
		SXB:                 sxb,
		DXB:                 dxb,
		DXBSeparate:         *dxbSep,
		VCs:                 vcCount,
		Adaptive:            *adaptive,
		Reconfig:            recfgMode,
		ReconfigDrainBudget: recfgBudget,
	}, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !outcome.Drained {
		os.Exit(1)
	}
}

// failList collects repeated -fail flags.
type failList []string

func (f *failList) String() string     { return fmt.Sprint([]string(*f)) }
func (f *failList) Set(s string) error { *f = append(*f, s); return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdxfault:", err)
	os.Exit(2)
}
