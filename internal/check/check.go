// Package check verifies protocol invariants over the streaming packet
// trace of a simulated multicast session. Each checker is a shadow state
// machine: it consumes the same chronological event stream the trace
// layer records (internal/trace events are appended in execution order —
// a node's Recv is recorded before its endpoint processes the packet,
// and any sends it triggers appear after), rebuilds the part of the
// protocol state it cares about, and reports a violation whenever the
// observed traffic contradicts the protocol's contract.
//
// Checkers are table-registered (Registry); each declares which runs it
// applies to, so protocol-specific invariants (ring rotation, tree
// causality) only attach where they are meaningful. Execute wires a run
// end to end: it installs a trace sink fanning every event into the
// applicable checkers, hooks receiver deliveries, runs the session
// through rmcast.Run, and collects the violations. Analyze replays a
// prerecorded event stream through the checkers instead — the unit-test
// entry point, and the reason checkers never reach around the RunInfo
// they are given.
//
// The invariant catalog lives in DESIGN.md ("Invariant catalog"); the
// deterministic chaos harness driving these checkers across the
// configuration space is fuzz.go / cmd/rmcheck.
package check

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"rmcast"
	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/trace"
)

// Violation is one observed invariant breach.
type Violation struct {
	// Checker names the invariant that fired (Registration.Name).
	Checker string
	// Detail is a human-readable account with the offending values.
	Detail string
}

func (v Violation) String() string { return v.Checker + ": " + v.Detail }

// Delivery records one receiver delivering a complete message: the
// moment its protocol endpoint invoked the delivery callback. Repeat
// invocations — impossible for a correct protocol — each append another
// Delivery, which is exactly how the delivery checker catches them.
type Delivery struct {
	Rank core.NodeID
	At   time.Duration // virtual time from session start
	Len  int           // payload length
	OK   bool          // payload was byte-identical to the sent message
}

// RunInfo is everything a checker may consult besides the event stream:
// the configuration that produced the run, and — from Finish onward —
// the run's result, error, and observed deliveries.
type RunInfo struct {
	// Cluster is the testbed configuration the session ran on.
	Cluster cluster.Config
	// Proto is the normalized protocol configuration (NumReceivers forced
	// to the cluster size, timing defaults filled in).
	Proto core.Config
	// MsgSize is the transferred message size in bytes.
	MsgSize int
	// Count is the data packet count for MsgSize under Proto.
	Count uint32

	// Result and RunErr are set before Finish; nil during Begin/Observe.
	Result *cluster.Result
	RunErr error
	// Deliveries lists every delivery callback invocation, in order.
	Deliveries []Delivery
}

// Checker is one streaming invariant verifier. Begin is called once
// before the first event, Observe once per trace event in chronological
// order, and Finish once after the session ends (info.Result populated).
// Violations are reported from Finish; a checker that detects a breach
// mid-stream records it and keeps consuming, so one broken invariant
// does not mask independent later ones.
type Checker interface {
	Name() string
	Begin(info *RunInfo)
	Observe(e trace.Event)
	Finish(info *RunInfo) []Violation
}

// Registration ties a checker factory to the runs it applies to.
type Registration struct {
	// Name identifies the checker in violations and docs.
	Name string
	// Applies reports whether the checker is meaningful for this run.
	Applies func(info *RunInfo) bool
	// New creates a fresh checker instance (checkers are stateful and
	// single-use).
	New func() Checker
}

// reliable reports whether the run uses one of the four reliable
// protocols (the raw UDP baseline promises nothing a checker could hold
// it to beyond delivery integrity and metrics consistency).
func reliable(info *RunInfo) bool { return info.Proto.Protocol != core.ProtoRawUDP }

// Registry returns the full checker table. The registry is a function
// (not a package variable) so callers can never mutate the canonical
// set.
func Registry() []Registration {
	return []Registration{
		{
			// Exactly-once, complete, uncorrupted delivery at every
			// receiver that delivered, consistent with Result.Delivered.
			Name:    "delivery",
			Applies: func(*RunInfo) bool { return true },
			New:     func() Checker { return newDeliveryChecker() },
		},
		{
			// The sender's window never exceeds its configured size and
			// never advances past an unacknowledged packet; receivers
			// never acknowledge (or NAK) beyond what they have received.
			Name:    "window",
			Applies: reliable,
			New:     func() Checker { return newWindowChecker() },
		},
		{
			// Retransmissions stay within the outstanding window, and a
			// run with no loss mechanism whatsoever produces zero
			// retransmissions and zero NAKs.
			Name:    "retransmit",
			Applies: reliable,
			New:     func() Checker { return newRetransmitChecker() },
		},
		{
			// Ring rotation: an acknowledgment is only sent by a receiver
			// whose rotation slot (or the everyone-acks-last rule) made it
			// responsible.
			Name:    "ring",
			Applies: func(info *RunInfo) bool { return info.Proto.Protocol == core.ProtoRing },
			New:     func() Checker { return newRingChecker() },
		},
		{
			// Tree causality: chain members report aggregates bounded by
			// what their successor actually reported, to the predecessor
			// the spliced membership dictates.
			Name:    "tree",
			Applies: func(info *RunInfo) bool { return info.Proto.Protocol == core.ProtoTree },
			New:     func() Checker { return newTreeChecker() },
		},
		{
			// An ejected receiver that has learned of its ejection stays
			// silent forever.
			Name:    "ghost",
			Applies: reliable,
			New:     func() Checker { return newGhostChecker() },
		},
		{
			// Dynamic membership: pre-admission silence, exactly-once
			// announcements, snapshot discipline, complete catch-up
			// coverage behind every late-join delivery, and
			// Left/NeverJoined bookkeeping consistent with the trace.
			Name:    "membership",
			Applies: reliable,
			New:     func() Checker { return newMembershipChecker() },
		},
		{
			// Multi-session isolation and rate control: every packet in
			// the session's stream carries the session's own tag (no
			// cross-session bleed), and with AIMD on, first transmissions
			// respect the congestion ceiling.
			Name: "session",
			Applies: func(info *RunInfo) bool {
				return reliable(info) && (info.Proto.SessionTag != 0 || info.Proto.Rate.Enabled)
			},
			New: func() Checker { return newSessionChecker() },
		},
		{
			// The metrics session's counters equal the counts derived
			// independently from the trace stream.
			Name:    "metrics",
			Applies: func(*RunInfo) bool { return true },
			New:     func() Checker { return newMetricsChecker() },
		},
		{
			// Completion soundness: a session that claims success
			// delivered to every non-ejected receiver; one that did not
			// complete returned an error saying so.
			Name:    "completion",
			Applies: reliable,
			New:     func() Checker { return newCompletionChecker() },
		},
	}
}

// maxViolationsPerChecker bounds how many violations one checker
// accumulates; a systemic breach repeats on every packet and the tail
// adds nothing.
const maxViolationsPerChecker = 16

// violations is the embedded accumulator every checker uses.
type violations struct {
	name string
	list []Violation
	more int
}

func (v *violations) Name() string { return v.name }

func (v *violations) addf(format string, args ...any) {
	if len(v.list) >= maxViolationsPerChecker {
		v.more++
		return
	}
	v.list = append(v.list, Violation{Checker: v.name, Detail: fmt.Sprintf(format, args...)})
}

func (v *violations) take() []Violation {
	if v.more > 0 {
		v.list = append(v.list, Violation{
			Checker: v.name,
			Detail:  fmt.Sprintf("... %d further violations suppressed", v.more),
		})
	}
	out := v.list
	v.list = nil
	v.more = 0
	return out
}

// Analyze replays a prerecorded event stream through every applicable
// checker and returns the combined violations. info must carry the run
// configuration; Result, RunErr, and Deliveries are consulted as-is at
// Finish (checkers tolerate a nil Result). This is the synthetic-stream
// entry point used by the checker unit tests; Execute is the live one.
func Analyze(info *RunInfo, events []trace.Event) []Violation {
	var checkers []Checker
	for _, reg := range Registry() {
		if reg.Applies(info) {
			checkers = append(checkers, reg.New())
		}
	}
	for _, c := range checkers {
		c.Begin(info)
	}
	for _, e := range events {
		for _, c := range checkers {
			c.Observe(e)
		}
	}
	var out []Violation
	for _, c := range checkers {
		out = append(out, c.Finish(info)...)
	}
	return out
}

// Outcome is one checked run.
type Outcome struct {
	Info       RunInfo
	Violations []Violation
	// Tail is the retained end of the packet trace, for violation
	// reports (the streaming checkers saw every event; the ring only
	// keeps the last tailCap).
	Tail []trace.Event
}

// tailCap is how many trailing events Execute retains for reports.
const tailCap = 2048

// Execute runs one simulated session under full invariant checking: it
// installs its own trace buffer (replacing any the caller set — the
// checkers need the complete, unfiltered stream), subscribes every
// applicable checker as a streaming sink, hooks receiver deliveries,
// runs the transfer, and collects violations. The run itself ending in
// an error (deadline, partial delivery) is not a violation; checkers
// judge whether the error and the traffic are consistent.
func Execute(ctx context.Context, ccfg cluster.Config, pcfg core.Config, msgSize int) (*Outcome, error) {
	pcfg.NumReceivers = ccfg.NumReceivers
	// Mirror the runner's churn derivation so checkers see the same
	// absent set the protocol endpoints will be constructed with.
	if ccfg.Faults != nil && ccfg.Faults.HasChurn() && pcfg.Protocol != core.ProtoRawUDP {
		pcfg.Absent = nil
		for _, j := range ccfg.Faults.Joiners() {
			pcfg.Absent = append(pcfg.Absent, core.NodeID(j))
		}
	}
	norm, err := pcfg.Normalize()
	if err != nil {
		return nil, fmt.Errorf("check: bad protocol config: %w", err)
	}
	info := &RunInfo{
		Cluster: ccfg,
		Proto:   norm,
		MsgSize: msgSize,
		Count:   norm.PacketCount(msgSize),
	}
	var checkers []Checker
	for _, reg := range Registry() {
		if reg.Applies(info) {
			checkers = append(checkers, reg.New())
		}
	}
	for _, c := range checkers {
		c.Begin(info)
	}

	buf := trace.New(tailCap)
	buf.SetSink(0, func(batch []trace.Event) {
		for _, e := range batch {
			for _, c := range checkers {
				c.Observe(e)
			}
		}
	})
	ccfg.Trace = buf

	expected := cluster.MakeMessage(msgSize)
	if ccfg.Message == nil {
		// The run sends expected itself, so a delivery that verified is
		// expected and bytes.Equal below compares one pointer.
		ccfg.Message = expected
	}
	prevDeliver := ccfg.OnDeliver
	ccfg.OnDeliver = func(rank core.NodeID, at time.Duration, payload []byte) {
		info.Deliveries = append(info.Deliveries, Delivery{
			Rank: rank,
			At:   at,
			Len:  len(payload),
			OK:   bytes.Equal(payload, expected),
		})
		if prevDeliver != nil {
			prevDeliver(rank, at, payload)
		}
	}

	res, runErr := rmcast.Run(ctx, ccfg, rmcast.ProtocolSpec(pcfg), msgSize)
	if res == nil {
		// Construction failed before the session started (invalid
		// config); there is nothing to check.
		return nil, runErr
	}
	if ctx.Err() != nil {
		// A canceled run was cut mid-protocol; its truncated trace would
		// fail checkers spuriously.
		return nil, ctx.Err()
	}
	info.Result = res
	info.RunErr = runErr
	out := &Outcome{Info: *info, Tail: buf.Events()}
	for _, c := range checkers {
		out.Violations = append(out.Violations, c.Finish(info)...)
	}
	return out, nil
}
