// Command rmsim runs one ad-hoc reliable multicast transfer on the
// simulated Ethernet testbed with every knob exposed, printing timing,
// throughput, and per-layer statistics.
//
// Examples:
//
//	rmsim -proto nak -receivers 30 -size 2097152 -packet 8000 -window 50 -poll 43
//	rmsim -proto tree -height 6 -size 512000
//	rmsim -proto ack -topology bus -loss 0.001
//	rmsim -proto tcp -size 426502 -receivers 30
//	rmsim -proto ack -crash 7@0.5 -maxretries 3
//	rmsim -proto tree -faults "crash:3@0,stall:5@10ms+40ms" -maxretries 3
//	rmsim -proto nak -metrics
//	rmsim -proto tree -topo fattree:4x32x33@1g -receivers 1024 -shards auto
//	rmsim -proto nak -packet 1400 -sessions 4 -overlap 0.5 -rate -leader
//	rmsim -proto ring -sessions 2 -cross 2 -cross-size 65536
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/faults"
	"rmcast/internal/session"
	"rmcast/internal/topo"
	"rmcast/internal/trace"
	"rmcast/internal/unicast"
)

func main() {
	var (
		proto     = flag.String("proto", "nak", "protocol: ack | nak | ring | tree | rawudp | tcp")
		receivers = flag.Int("receivers", 30, "number of receivers")
		size      = flag.Int("size", 512000, "message size in bytes")
		pktSize   = flag.Int("packet", 8000, "packet payload size in bytes")
		window    = flag.Int("window", 0, "window size in packets (0 = protocol-appropriate default)")
		poll      = flag.Int("poll", 0, "NAK poll interval (0 = 85% of window)")
		height    = flag.Int("height", 0, "flat-tree height (0 = derive from the topology's switch domains)")
		rings     = flag.Int("rings", 0, "ring rotation count (0 = single ring, or one per switch domain at >=256 receivers)")
		topology  = flag.String("topology", "two-switch", "two-switch | single-switch | bus")
		topoSpec  = flag.String("topo", "", "declarative fabric spec, e.g. fattree:4x8x32@1g,trunk=100m (overrides -topology; -topo list prints the canned specs)")
		loss      = flag.Float64("loss", 0, "injected frame loss rate (0..1)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		verbose   = flag.Bool("v", false, "print per-host statistics")
		selective = flag.Bool("selective", false, "use selective repeat instead of Go-Back-N (-selective=false pins Go-Back-N under -wirev2, whose default is selective repeat)")
		naksupp   = flag.Bool("naksupp", false, "use receiver-side multicast NAK suppression")
		wirev2    = flag.Bool("wirev2", false, "use wire format v2: CRC32-C checksummed frames, transparent compression, sub-MTU coalescing; selective repeat becomes the default ARQ (an explicit -selective overrides)")
		pace      = flag.Duration("pace", 0, "rate-pace first transmissions (e.g. 700us; 0 = window only)")
		traceN    = flag.Int("trace", 0, "print the last N protocol packet events")
		metricsF  = flag.Bool("metrics", false, "print the session metrics snapshot (packet counts, retransmissions, completion latency)")
		crash     = flag.String("crash", "", "crash receivers, e.g. 7@0.5 (rank@progress) or 3@20ms,5@0; shorthand for -faults crash:...")
		faultSpec = flag.String("faults", "", "full fault schedule, e.g. crash:7@0.5,stall:3@20ms+40ms,burst:*@0.5+5ms:0.3,join:5@0.3,leave:2@0.7")
		catchupF  = flag.String("join-catchup", "sender", "late-join catch-up source: sender | peer")
		maxRetry  = flag.Int("maxretries", 0, "no-progress timeout rounds before the sender probes and ejects a receiver (0 = wait forever, as in the paper)")
		sessionDl = flag.Duration("session-deadline", 0, "protocol-level session deadline; at expiry unfinished receivers are declared failed (0 = none)")
		shardsF   = flag.String("shards", "", "run the simulation on N conservatively synchronized switch-domain shards: an integer >= 2, or 'auto' (min of the fabric's domains and GOMAXPROCS); results are byte-identical to serial")
		sessions  = flag.Int("sessions", 1, "concurrent multicast sessions sharing the fabric (each with its own sender and -receivers receivers)")
		overlap   = flag.Float64("overlap", 0.5, "fraction of each session's receivers drawn from a pool shared by every session (0..1)")
		stagger   = flag.Duration("stagger", 0, "start-time offset between consecutive sessions (e.g. 500us)")
		crossN    = flag.Int("cross", 0, "background unicast cross-traffic flows between receiver hosts")
		crossSize = flag.Int("cross-size", 64*1024, "bytes per cross-traffic transfer")
		crossRep  = flag.Int("cross-repeat", 1, "transfers per cross-traffic flow")
		rateCtl   = flag.Bool("rate", false, "enable the AIMD congestion window on each sender")
		leader    = flag.Bool("leader", false, "pace first transmissions at SRTT/cwnd of the worst (leader) receiver; requires -rate")
		maxCwnd   = flag.Int("maxcwnd", 0, "AIMD congestion-window ceiling in packets (0 = the protocol window); requires -rate")
	)
	flag.Parse()

	if *topoSpec == "list" {
		for _, c := range topo.Canned() {
			fmt.Printf("%-24s %s\n", c.Spec, c.Note)
		}
		return
	}
	validateFlags(*proto, *topology, *loss, *sessions, *crossN, *overlap, *rateCtl)

	ccfg := cluster.Default(*receivers)
	ccfg.Seed = *seed
	ccfg.LossRate = *loss
	spec := *faultSpec
	if *crash != "" {
		for _, part := range strings.Split(*crash, ",") {
			if spec != "" {
				spec += ","
			}
			spec += "crash:" + strings.TrimSpace(part)
		}
	}
	if spec != "" {
		sched, err := faults.Parse(spec)
		if err != nil {
			fatalf("%v", err)
		}
		ccfg.Faults = sched
	}
	switch *topology {
	case "two-switch":
	case "single-switch":
		ccfg.Topology = cluster.SingleSwitch
	case "bus":
		ccfg.Topology = cluster.SharedBus
	default:
		fatalf("unknown topology %q", *topology)
	}
	if *topoSpec != "" {
		spec, err := topo.Parse(*topoSpec)
		if err != nil {
			fatalf("%v", err)
		}
		if err := spec.Validate(*receivers + 1); err != nil {
			fatalf("%v", err)
		}
		ccfg.Topo = &spec
	}
	if *shardsF != "" {
		ccfg.Shards = resolveShards(*shardsF, ccfg)
	}

	if *proto == "tcp" {
		res, err := cluster.Run(context.Background(), ccfg, cluster.TCPSpec(unicast.DefaultConfig()), *size)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("tcp (sequential unicast): %d bytes to %d receivers in %v (%.1f Mbps aggregate)\n",
			*size, *receivers, res.Elapsed.Round(time.Microsecond), res.ThroughputMbps)
		if *metricsF {
			fmt.Println("--- session metrics ---")
			res.Metrics.Fprint(os.Stdout)
		}
		return
	}

	p, err := core.ParseProtocol(*proto)
	if err != nil {
		fatalf("%v", err)
	}
	pcfg := core.Config{
		Protocol:        p,
		NumReceivers:    *receivers,
		PacketSize:      *pktSize,
		WindowSize:      *window,
		TreeHeight:      *height,
		NumRings:        *rings,
		NakSuppression:  *naksupp,
		PaceInterval:    *pace,
		MaxRetries:      *maxRetry,
		SessionDeadline: *sessionDl,
		WireV2:          *wirev2,
	}
	// An explicit -selective pins the ARQ mode either way; untouched,
	// ARQAuto follows the wire format (selective repeat under -wirev2).
	if flagWasSet("selective") {
		pcfg.ARQ = core.ARQGoBackN
		if *selective {
			pcfg.ARQ = core.ARQSelective
		}
	}
	// Topology-derived scaling (tree chain height and layout, multi-ring
	// partitioning, the ring window) fills the knobs still at zero...
	pcfg = cluster.ScaleForTopology(pcfg, ccfg)
	// ...and protocol-appropriate defaults cover the rest.
	if pcfg.WindowSize == 0 {
		switch p {
		case core.ProtoRing:
			pcfg.WindowSize = *receivers + 20
		case core.ProtoACK:
			pcfg.WindowSize = 2
		default:
			pcfg.WindowSize = 20
		}
	}
	pcfg.PollInterval = *poll
	if pcfg.PollInterval == 0 {
		pcfg.PollInterval = pcfg.WindowSize * 85 / 100
		if pcfg.PollInterval < 1 {
			pcfg.PollInterval = 1
		}
	}
	if pcfg.JoinCatchup, err = core.ParseCatchup(*catchupF); err != nil {
		fatalf("%v", err)
	}
	if *rateCtl {
		pcfg.Rate = core.RateControl{Enabled: true, LeaderPacing: *leader, MaxWindow: *maxCwnd}
	}

	if *sessions > 1 || *crossN > 0 {
		runMulti(session.Config{
			Sessions:     *sessions,
			ReceiversPer: *receivers,
			Overlap:      *overlap,
			Stagger:      *stagger,
			Proto:        pcfg,
			MsgSize:      *size,
			Cluster:      ccfg,
			CrossFlows:   *crossN,
			CrossSize:    *crossSize,
			CrossRepeat:  *crossRep,
		})
		return
	}

	var traceBuf *trace.Buffer
	if *traceN > 0 {
		traceBuf = trace.New(*traceN)
		ccfg.Trace = traceBuf
	}
	res, err := cluster.Run(context.Background(), ccfg, cluster.ProtoSpec(pcfg), *size)
	if err != nil {
		if pr, ok := err.(*core.PartialResult); ok {
			fmt.Printf("partial: delivered=%v failed=%v\n", pr.Delivered, pr.Failed)
		}
		fatalf("%v", err)
	}
	fmt.Printf("%v: %d bytes to %d receivers in %v (%.1f Mbps)\n",
		p, *size, *receivers, res.Elapsed.Round(time.Microsecond), res.ThroughputMbps)
	fmt.Printf("verified: %v\n", res.Verified)
	if len(res.Failed) > 0 {
		fmt.Printf("degraded: delivered=%v failed=%v\n", res.Delivered, res.Failed)
	}
	s := res.SenderStats
	fmt.Printf("sender: data=%d retrans=%d acksIn=%d naksIn=%d timeouts=%d suppressed=%d probes=%d ejected=%d\n",
		s.DataSent, s.Retransmissions, s.AcksReceived, s.NaksReceived, s.Timeouts, s.SuppressedNaks, s.ProbesSent, s.Ejected)
	if m := res.Metrics; *wirev2 && m.WireFrames > 0 {
		fmt.Printf("wire: frames=%d bytes=%d (%.2fx compression) carriers=%d coalesced=%d corrupt=%d\n",
			m.WireFrames, m.WireBytes, float64(m.WireRawBytes)/float64(m.WireBytes),
			m.CarrierFrames, m.CoalescedPackets, m.CorruptFrames)
	}
	if ccfg.Topology == cluster.SharedBus {
		fmt.Printf("bus: delivered=%d collisions=%d aborted=%d\n",
			res.BusStats.Delivered, res.BusStats.Collisions, res.BusStats.Aborted)
	}
	for i, sw := range res.SwitchStats {
		fmt.Printf("switch%d: forwarded=%d flooded=%d queueDrops=%d\n", i, sw.Forwarded, sw.Flooded, sw.QueueDrops)
	}
	if *verbose {
		for i, h := range res.HostStats {
			fmt.Printf("host%-3d sent=%-6d recv=%-6d sockDrops=%-4d reasmDrops=%-4d cpu=%v\n",
				i, h.SentDatagrams, h.RecvDatagrams, h.SocketDrops, h.ReasmDrops, h.CPUBusy.Round(time.Microsecond))
		}
	}
	if *metricsF {
		fmt.Println("--- session metrics ---")
		res.Metrics.Fprint(os.Stdout)
	}
	if traceBuf != nil {
		fmt.Printf("--- packet trace (%d events total) ---\n", traceBuf.Total())
		traceBuf.Fprint(os.Stdout)
	}
}

// runMulti executes a multi-session contention scenario and prints the
// per-session results plus the contention reduction (aggregate goodput,
// Jain fairness).
func runMulti(scfg session.Config) {
	res, rep, err := session.Run(context.Background(), scfg)
	if err != nil {
		fatalf("%v", err)
	}
	for i := range res.Sessions {
		sr := &res.Sessions[i]
		fmt.Printf("session %d: %d bytes to %d receivers in %v (%.1f Mbps) verified=%v\n",
			i, scfg.MsgSize, scfg.ReceiversPer, sr.Elapsed.Round(time.Microsecond), sr.ThroughputMbps, sr.Verified)
	}
	if rep.CrossCompleted > 0 || scfg.CrossFlows > 0 {
		fmt.Printf("cross-traffic: %d transfers completed across %d flows\n", rep.CrossCompleted, scfg.CrossFlows)
	}
	fmt.Printf("aggregate: %.1f Mbps over %d sessions in %v (Jain fairness %.3f)\n",
		rep.AggregateMbps, rep.Sessions, rep.Elapsed.Round(time.Microsecond), rep.Fairness)
	for i, sw := range res.SwitchStats {
		fmt.Printf("switch%d: forwarded=%d flooded=%d queueDrops=%d\n", i, sw.Forwarded, sw.Flooded, sw.QueueDrops)
	}
}

// resolveShards turns the -shards flag value into a Config.Shards
// count, validated up front against the fabric's parallel
// decomposition so a bad request fails with the domain arithmetic
// instead of deep in cluster construction. "auto" asks for as many
// shards as there are cores, bounded by the fabric's host-bearing
// switch domains, and falls back to serial when that leaves fewer
// than two.
func resolveShards(v string, ccfg cluster.Config) int {
	max := cluster.MaxShards(ccfg)
	if v == "auto" {
		k := runtime.GOMAXPROCS(0)
		if k > max {
			k = max
		}
		if k < 2 {
			return 0
		}
		return k
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 2 {
		fatalf("-shards wants an integer >= 2 or 'auto', got %q", v)
	}
	if n > max {
		fatalf("-shards %d exceeds this fabric's %d host-bearing switch domains (each shard needs at least one)", n, max)
	}
	return n
}

// validateFlags rejects flag combinations that would otherwise be
// silently ignored (or normalized away) before any simulation runs.
// Only flags the user explicitly set are checked, so defaults never
// trip the validation.
func validateFlags(proto, topology string, loss float64, sessions, cross int, overlap float64, rate bool) {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if sessions < 1 {
		usageError("-sessions must be >= 1, got %d", sessions)
	}
	if overlap < 0 || overlap > 1 {
		usageError("-overlap must be in [0, 1], got %g", overlap)
	}
	if sessions > 1 || cross > 0 {
		if proto == "tcp" || proto == "rawudp" {
			usageError("-sessions/-cross need a reliable multicast protocol (got -proto %s)", proto)
		}
		if topology == "bus" {
			usageError("-sessions/-cross need a switched fabric; the shared bus saturates hopelessly under concurrent senders")
		}
		for _, f := range []string{"faults", "crash", "metrics", "trace"} {
			if set[f] {
				usageError("-%s is not supported in multi-session runs", f)
			}
		}
	}
	for _, f := range []string{"overlap", "stagger"} {
		if set[f] && sessions <= 1 {
			usageError("-%s only applies with -sessions > 1", f)
		}
	}
	for _, f := range []string{"cross-size", "cross-repeat"} {
		if set[f] && cross == 0 {
			usageError("-%s only applies with -cross > 0", f)
		}
	}
	if !rate {
		for _, f := range []string{"leader", "maxcwnd"} {
			if set[f] {
				usageError("-%s requires -rate", f)
			}
		}
	}
	if rate && (proto == "tcp" || proto == "rawudp") {
		usageError("-rate only applies to the reliable multicast protocols (got -proto %s)", proto)
	}

	if set["shards"] {
		if topology == "bus" {
			usageError("-shards needs a switched fabric; the shared bus is one collision domain and cannot shard")
		}
		if proto == "tcp" {
			usageError("-shards does not apply to the sequential TCP baseline (it runs serially by construction)")
		}
		if set["wirev2"] {
			usageError("-wirev2 does not support sharded execution yet")
		}
	}

	if loss < 0 || loss > 1 {
		usageError("-loss must be in [0, 1], got %g", loss)
	}
	if set["height"] && proto != "tree" {
		usageError("-height only applies to -proto tree (got -proto %s)", proto)
	}
	if set["rings"] && proto != "ring" {
		usageError("-rings only applies to -proto ring (got -proto %s)", proto)
	}
	if set["topo"] && set["topology"] {
		usageError("-topo and -topology are mutually exclusive (the spec string subsumes the enum)")
	}
	if proto != "nak" {
		for _, f := range []string{"poll", "naksupp"} {
			if set[f] {
				usageError("-%s only applies to -proto nak (got -proto %s)", f, proto)
			}
		}
		// -selective picks the ARQ mode for any protocol under v2; the
		// v1 flag keeps its historical NAK-only scope.
		if set["selective"] && !set["wirev2"] {
			usageError("-selective only applies to -proto nak (got -proto %s); with -wirev2 it applies to every protocol", proto)
		}
	}
	if set["poll"] {
		if v, err := flagInt("poll"); err == nil && v <= 0 {
			usageError("-poll must be positive when set (the NAK protocol polls every N packets), got %d", v)
		}
	}
	if proto == "tcp" || proto == "rawudp" {
		for _, f := range []string{"window", "maxretries", "session-deadline", "pace", "join-catchup", "wirev2"} {
			if set[f] {
				usageError("-%s only applies to the reliable multicast protocols (got -proto %s)", f, proto)
			}
		}
	}
}

// flagWasSet reports whether the named flag was given on the command
// line (as opposed to holding its default).
func flagWasSet(name string) bool {
	found := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			found = true
		}
	})
	return found
}

// flagInt reads a set integer flag back out of the flag set.
func flagInt(name string) (int, error) {
	f := flag.Lookup(name)
	if f == nil {
		return 0, fmt.Errorf("no flag %q", name)
	}
	g, ok := f.Value.(flag.Getter)
	if !ok {
		return 0, fmt.Errorf("flag %q is not a Getter", name)
	}
	v, ok := g.Get().(int)
	if !ok {
		return 0, fmt.Errorf("flag %q is not an int", name)
	}
	return v, nil
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rmsim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rmsim: "+format+"\n", args...)
	os.Exit(1)
}
