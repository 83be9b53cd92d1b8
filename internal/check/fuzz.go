package check

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/ethernet"
	"rmcast/internal/exp"
	"rmcast/internal/faults"
	"rmcast/internal/rng"
	"rmcast/internal/session"
	"rmcast/internal/topo"
)

// Case is one point of the chaos harness's configuration space,
// deterministically derived from (Seed, Index): rerunning DeriveCase
// with the same pair rebuilds the identical scenario, which is what
// `rmcheck -repro seed:index` does.
type Case struct {
	Seed    uint64
	Index   int
	Cluster cluster.Config
	Proto   core.Config
	MsgSize int

	// Contention block — zero for classic single-session cases. Drawn
	// from its own rng stream (see DeriveCase), so adding it moved no
	// classic draw off its stream position: the single-session view of
	// every (seed, index) is byte-identical to what it always was.
	// Sessions > 1 runs the case as that many concurrent sessions
	// (each with the classic receiver count) through the session layer.
	Sessions int
	Overlap  float64
	Stagger  time.Duration
	// CrossFlows background unicast flows of CrossSize bytes, repeated
	// CrossRepeat times each, ride alongside the sessions.
	CrossFlows  int
	CrossSize   int
	CrossRepeat int
}

// classic returns the case's single-session view: the contention block
// and the rate controller (both drawn from the contention stream)
// removed. The pinned sweep digests hash this view, proving the classic
// scenario space never moves when contention draws change.
func (c Case) classic() Case {
	c.Sessions, c.Overlap, c.Stagger = 0, 0, 0
	c.CrossFlows, c.CrossSize, c.CrossRepeat = 0, 0, 0
	c.Proto.Rate = core.RateControl{}
	return c
}

// Repro is the case's reproduction handle, accepted by ParseRepro and
// `rmcheck -repro`.
func (c Case) Repro() string { return fmt.Sprintf("%d:%d", c.Seed, c.Index) }

// ParseRepro inverts Repro.
func ParseRepro(s string) (seed uint64, index int, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("check: repro %q is not seed:case", s)
	}
	seed, err = strconv.ParseUint(a, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("check: bad repro seed %q: %v", a, err)
	}
	index, err = strconv.Atoi(b)
	if err != nil || index < 0 {
		return 0, 0, fmt.Errorf("check: bad repro case index %q", b)
	}
	return seed, index, nil
}

// String is a one-line summary of the scenario for reports.
func (c Case) String() string {
	var b strings.Builder
	topoStr := c.Cluster.Topology.String()
	if c.Cluster.Topo != nil {
		topoStr = c.Cluster.Topo.String()
	}
	fmt.Fprintf(&b, "%v n=%d %s pkt=%d msg=%d W=%d",
		c.Proto.Protocol, c.Cluster.NumReceivers, topoStr,
		c.Proto.PacketSize, c.MsgSize, c.Proto.WindowSize)
	if c.Proto.Protocol == core.ProtoNAK {
		fmt.Fprintf(&b, " poll=%d", c.Proto.PollInterval)
	}
	if c.Proto.Protocol == core.ProtoTree {
		fmt.Fprintf(&b, " H=%d", c.Proto.TreeHeight)
		if c.Proto.TreeLayout == core.TreeBlocked {
			b.WriteString(" blocked")
		}
	}
	if c.Proto.NumRings > 1 {
		fmt.Fprintf(&b, " rings=%d", c.Proto.NumRings)
	}
	if c.Proto.JoinCatchup == core.CatchupPeer {
		b.WriteString(" catchup=peer")
	}
	if c.Proto.ARQ == core.ARQSelective {
		b.WriteString(" selrep")
	}
	if c.Proto.NakSuppression {
		b.WriteString(" naksupp")
	}
	if c.Proto.PaceInterval > 0 {
		fmt.Fprintf(&b, " pace=%v", c.Proto.PaceInterval)
	}
	if c.Cluster.LossRate > 0 {
		fmt.Fprintf(&b, " loss=%.3f", c.Cluster.LossRate)
	}
	if c.Cluster.RecvBuf != 64*1024 {
		fmt.Fprintf(&b, " rcvbuf=%d", c.Cluster.RecvBuf)
	}
	if c.Proto.MaxRetries > 0 {
		fmt.Fprintf(&b, " retries=%d", c.Proto.MaxRetries)
	}
	if c.Proto.SessionDeadline > 0 {
		fmt.Fprintf(&b, " sdl=%v", c.Proto.SessionDeadline)
	}
	if c.Cluster.Faults != nil {
		fmt.Fprintf(&b, " faults=%v", c.Cluster.Faults)
	}
	if c.Proto.Rate.Enabled {
		b.WriteString(" rate")
		if c.Proto.Rate.LeaderPacing {
			b.WriteString("+lp")
		}
	}
	if c.Sessions > 1 {
		fmt.Fprintf(&b, " sessions=%d ov=%.2f", c.Sessions, c.Overlap)
		if c.Stagger > 0 {
			fmt.Fprintf(&b, " stagger=%v", c.Stagger)
		}
		if c.CrossFlows > 0 {
			fmt.Fprintf(&b, " cross=%dx%d*%d", c.CrossFlows, c.CrossSize, c.CrossRepeat)
		}
	}
	return b.String()
}

// caseDeadline bounds one case's virtual time: generous enough for a
// lossy Go-Back-N transfer to finish, tight enough that a deliberately
// wedged session (crashed receiver, no failure detection) costs only a
// handful of backed-off timer events.
const caseDeadline = 15 * time.Second

// DeriveCase expands (seed, index) into a full scenario: protocol
// family, group size, message and packet sizes, window/poll/tree
// parameters, topology, loss, small-buffer pressure, and a fault
// schedule — every choice drawn from one deterministic rng stream.
//
// The derivation keeps two soundness bounds so the retransmit checker's
// lossless rule stays valid: packet sizes and poll intervals are small
// enough that the protocol's longest natural acknowledgment silence
// stays far below the default retransmission timeout, and timeouts are
// never configured below their defaults.
func DeriveCase(seed uint64, index int) Case {
	r := rng.New(rng.Mix(seed, uint64(index), 0xC8EC5FA2))

	var proto core.Protocol
	if r.Bool(0.1) {
		proto = core.ProtoRawUDP
	} else {
		proto = []core.Protocol{core.ProtoACK, core.ProtoNAK, core.ProtoRing, core.ProtoTree}[r.Intn(4)]
	}
	n := 1 + r.Intn(30)

	ccfg := cluster.Default(n)
	ccfg.Seed = r.Uint64()
	ccfg.Deadline = caseDeadline
	ccfg.WallLimit = 30 * time.Second
	switch {
	case n <= 8 && r.Bool(0.15):
		ccfg.Topology = cluster.SharedBus
	case r.Bool(0.2):
		ccfg.Topology = cluster.SingleSwitch
	}

	// Fabric and protocol-scaling draws come from their own rng stream,
	// so the classic draws above and below stay on the stream positions
	// the pinned sweep seeds were tuned against.
	tr := rng.New(rng.Mix(seed, uint64(index), 0x70B0FA6C))
	if ccfg.Topology != cluster.SharedBus && tr.Bool(0.35) {
		ccfg.Topo = deriveTopo(tr, n+1)
	}

	packetSize := []int{512, 1024, 2048, 4096, 8192, 16384}[r.Intn(6)]
	var msgSize int
	switch r.Intn(4) {
	case 0:
		msgSize = r.Intn(2048) // tiny, including the zero-byte message
	case 1:
		msgSize = 4<<10 + r.Intn(28<<10)
	case 2:
		msgSize = 32<<10 + r.Intn(96<<10)
	default:
		msgSize = 128<<10 + r.Intn(128<<10)
	}

	w := 4 + r.Intn(61)
	if proto == core.ProtoRing && w <= n {
		w = n + 1 + r.Intn(16)
	}
	poll := 1 + r.Intn(min(w, 32))

	pcfg := core.Config{
		Protocol:     proto,
		NumReceivers: n,
		PacketSize:   packetSize,
		WindowSize:   w,
		PollInterval: poll,
		TreeHeight:   1 + r.Intn(n),
	}
	if proto != core.ProtoRawUDP {
		if r.Bool(0.25) {
			pcfg.ARQ = core.ARQSelective
		}
		pcfg.NakSuppression = r.Bool(0.2)
		if r.Bool(0.1) {
			pcfg.PaceInterval = time.Duration(20+r.Intn(180)) * time.Microsecond
		}
	}
	// Scaled protocol structure (again on the fabric stream): a
	// partitioned ring — the ring window draw above already guarantees
	// w > n ≥ span — or blocked tree chains.
	if proto == core.ProtoRing && n >= 2 && tr.Bool(0.3) {
		pcfg.NumRings = 2 + tr.Intn(min(3, n-1))
	}
	if proto == core.ProtoTree && tr.Bool(0.3) {
		pcfg.TreeLayout = core.TreeBlocked
	}

	if r.Bool(0.45) {
		ccfg.LossRate = 0.002 + r.Float64()*0.028
	}
	if r.Bool(0.15) {
		// Small socket buffers to provoke overflow drops — but never so
		// small a data packet cannot fit at all, which would deadlock the
		// transfer rather than stress it.
		ccfg.RecvBuf = max(4096<<r.Intn(3), 2*packetSize)
	}

	if r.Bool(0.35) {
		sched := deriveFaults(r, n, ccfg.Topology, proto)
		if len(sched.Events) > 0 {
			ccfg.Faults = sched
			if proto != core.ProtoRawUDP && r.Bool(0.7) {
				pcfg.MaxRetries = 2 + r.Intn(3)
			}
			if proto != core.ProtoRawUDP && r.Bool(0.25) {
				pcfg.SessionDeadline = 2*time.Second + time.Duration(r.Intn(4000))*time.Millisecond
			}
			if sched.HasChurn() && r.Bool(0.5) {
				pcfg.JoinCatchup = core.CatchupPeer
			}
		}
	} else if proto != core.ProtoRawUDP && ccfg.LossRate > 0 && r.Bool(0.08) {
		pcfg.SessionDeadline = 1500*time.Millisecond + time.Duration(r.Intn(2000))*time.Millisecond
	}

	c := Case{Seed: seed, Index: index, Cluster: ccfg, Proto: pcfg, MsgSize: msgSize}

	// Contention draws come from their own stream — like the fabric
	// stream above, so every classic draw keeps its position and the
	// pinned sweep digests over the classic view stay byte-identical.
	// Eligibility is conservative: multi-session runs need a reliable
	// protocol, a nonempty message, static membership (no faults), a
	// switched stock topology (custom fabrics are sized for the classic
	// host count), and no session deadline (which would race the other
	// sessions' contention rather than its own receivers).
	mr := rng.New(rng.Mix(seed, uint64(index), 0x5E551D4B))
	eligible := proto != core.ProtoRawUDP && msgSize > 0 &&
		ccfg.Faults == nil && ccfg.Topo == nil &&
		ccfg.Topology != cluster.SharedBus &&
		pcfg.SessionDeadline == 0 && pcfg.MaxRetries == 0
	if eligible && mr.Bool(0.2) {
		c.Sessions = 2 + mr.Intn(3)
		if n > 10 {
			c.Sessions = 2 // bound the fabric: each session re-uses the full receiver count
		}
		c.Overlap = []float64{0, 0.25, 0.5, 1}[mr.Intn(4)]
		c.Stagger = time.Duration(mr.Intn(5)) * time.Millisecond
		if n >= 2 && mr.Bool(0.5) {
			c.CrossFlows = 1 + mr.Intn(2)
			c.CrossSize = 16<<10 + mr.Intn(48<<10)
			c.CrossRepeat = 1 + mr.Intn(2)
		}
		if mr.Bool(0.5) {
			c.Proto.Rate = core.RateControl{Enabled: true, LeaderPacing: mr.Bool(0.5)}
		}
	}
	return c
}

// deriveTopo draws a small declarative fabric (1-4 switches) with mixed
// link speeds: gigabit or 100 Mbps edges, trunks sometimes slowed by an
// explicit rate or an oversubscription ratio. Capacity-bounded shapes
// size their leaves to fit the drawn host count.
func deriveTopo(r *rng.Rand, hosts int) *topo.Spec {
	var s topo.Spec
	switch r.Intn(4) {
	case 0:
		s = topo.SingleSpec()
	case 1:
		s = topo.Spec{Kind: topo.Star, Leaves: 2}
	case 2:
		s = topo.Spec{Kind: topo.Star, Leaves: 3}
	default:
		s = topo.Spec{Kind: topo.FatTree, Spines: 2, Leaves: 2, HostsPerLeaf: (hosts + 1) / 2}
	}
	if r.Bool(0.4) {
		s.EdgeRate = ethernet.Rate1Gbps
	}
	if s.Kind != topo.Single {
		switch r.Intn(3) {
		case 1:
			s.Oversub = 2 + r.Intn(3)
		case 2:
			if s.EdgeRate == ethernet.Rate1Gbps {
				s.TrunkRate = ethernet.Rate100Mbps
			} else {
				s.TrunkRate = ethernet.Rate10Mbps
			}
		}
	}
	return &s
}

// deriveFaults builds a small schedule honoring the runner's
// constraints: no bursts on the shared bus (the injector rejects them —
// a bus has no switch ports to gate) and only time triggers for raw UDP
// (which has no acknowledged progress to trigger on).
func deriveFaults(r *rng.Rand, n int, topo cluster.Topology, proto core.Protocol) *faults.Schedule {
	sched := &faults.Schedule{}
	for i, count := 0, 1+r.Intn(3); i < count; i++ {
		var e faults.Event
		switch pick := r.Intn(20); {
		case pick < 7:
			e.Kind = faults.Crash
		case pick < 13:
			e.Kind = faults.Stall
			e.Dur = time.Duration(10+r.Intn(1500)) * time.Millisecond
		case pick < 17 || topo == cluster.SharedBus:
			e.Kind = faults.Flap
			e.Dur = time.Duration(10+r.Intn(1500)) * time.Millisecond
		default:
			e.Kind = faults.Burst
			e.Dur = time.Duration(5+r.Intn(150)) * time.Millisecond
			e.Rate = 0.2 + 0.6*r.Float64()
		}
		e.Node = 1 + r.Intn(n)
		if proto != core.ProtoRawUDP && r.Bool(0.7) {
			e.ByProgress = true
			e.Progress = float64(r.Intn(10)) / 10
		} else {
			e.At = time.Duration(r.Intn(200)) * time.Millisecond
		}
		sched.Events = append(sched.Events, e)
	}
	// Membership churn rides alongside the classic faults on the
	// reliable protocols: a late join, a graceful leave, or both.
	// Overlap with the classic faults is deliberate — a joiner whose
	// link flaps mid-catch-up, or a leaver racing a crash, is exactly
	// the compound scenario the membership checker must stay sound
	// under. (Validate forbids only double transitions per rank, which
	// the distinct-rank draw below avoids.)
	if proto != core.ProtoRawUDP && n >= 3 && r.Bool(0.5) {
		joiner := 0
		if r.Bool(0.7) {
			joiner = 1 + r.Intn(n)
			sched.Events = append(sched.Events, churnEvent(r, faults.Join, joiner))
		}
		if leaver := 1 + r.Intn(n); leaver != joiner && (joiner == 0 || r.Bool(0.5)) {
			sched.Events = append(sched.Events, churnEvent(r, faults.Leave, leaver))
		}
	}
	return sched
}

// churnEvent draws one membership transition's trigger: usually a
// progress fraction (which survives timing retunes), sometimes an
// absolute virtual time like the classic faults.
func churnEvent(r *rng.Rand, kind faults.Kind, node int) faults.Event {
	e := faults.Event{Kind: kind, Node: node}
	if r.Bool(0.8) {
		e.ByProgress = true
		e.Progress = float64(r.Intn(10)) / 10
	} else {
		e.At = time.Duration(r.Intn(200)) * time.Millisecond
	}
	return e
}

// RunCase executes one derived case under full invariant checking:
// single-session cases through Execute, contention cases through the
// session planner and ExecuteMulti.
func RunCase(ctx context.Context, c Case) (*Outcome, error) {
	if c.Sessions > 1 {
		return runMultiCase(ctx, c)
	}
	return Execute(ctx, c.Cluster, c.Proto, c.MsgSize)
}

// runMultiCase plans and executes a contention case and folds the
// per-session outcomes into one report, each violation prefixed with
// its session index.
func runMultiCase(ctx context.Context, c Case) (*Outcome, error) {
	ccfg, specs, flows, err := session.Plan(session.Config{
		Sessions:     c.Sessions,
		ReceiversPer: c.Cluster.NumReceivers,
		Overlap:      c.Overlap,
		Stagger:      c.Stagger,
		Proto:        c.Proto,
		MsgSize:      c.MsgSize,
		Cluster:      c.Cluster,
		CrossFlows:   c.CrossFlows,
		CrossSize:    c.CrossSize,
		CrossRepeat:  c.CrossRepeat,
	})
	if err != nil {
		return nil, err
	}
	outs, _, err := ExecuteMulti(ctx, ccfg, specs, flows)
	if err != nil {
		return nil, err
	}
	agg := &Outcome{Info: outs[0].Info, Tail: outs[0].Tail}
	for si, o := range outs {
		for _, v := range o.Violations {
			v.Detail = fmt.Sprintf("session %d: %s", si, v.Detail)
			agg.Violations = append(agg.Violations, v)
		}
		if len(o.Violations) > 0 {
			agg.Info, agg.Tail = o.Info, o.Tail
		}
	}
	return agg, nil
}

// CaseResult is one finished case of a Fuzz sweep. Err is a harness
// failure (invalid derived config, cancellation) — protocol-level
// failures (deadlines, partial delivery) land in Outcome.Info.RunErr
// and are judged by the checkers instead.
type CaseResult struct {
	Case    Case
	Outcome *Outcome
	Err     error
}

// Fuzz derives and runs cases first..first+n-1 from seed, fanning them
// over parallel workers (the experiment engine's exp.Each), and reports
// each finished case in index order — so output is deterministic
// regardless of worker count. report returning false stops the sweep:
// cases not yet started never run, and running ones are cancelled.
func Fuzz(ctx context.Context, seed uint64, first, n, parallel int, report func(CaseResult) bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cases := make([]Case, n)
	for i := range cases {
		cases[i] = DeriveCase(seed, first+i)
	}
	exp.Each(ctx, parallel, n,
		func(i int) (*Outcome, error) { return RunCase(ctx, cases[i]) },
		func(i int, out *Outcome, err error) bool {
			if !report(CaseResult{Case: cases[i], Outcome: out, Err: err}) {
				cancel()
				return false
			}
			return true
		})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
