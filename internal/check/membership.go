package check

import (
	"sort"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/packet"
	"rmcast/internal/trace"
)

// membershipChecker verifies the dynamic-membership contract:
//
//   - in a run whose schedule has no churn, no membership traffic
//     (join requests, admissions, snapshots, delegations, leaves)
//     appears at all;
//   - a not-yet-admitted rank sends nothing but its TypeJoinReq (and
//     transport-level hellos) until its TypeJoinOK arrives;
//   - admissions are announced exactly once per rank, only for ranks
//     that started absent, and departures exactly once per rank;
//   - snapshot packets flow only to admitted joiners and only for
//     sequences below that joiner's announced join base — the live
//     window covers everything else;
//   - a late joiner that delivered received every sequence of the
//     message *after* its admission, each at least once, as live data
//     or snapshot — the catch-up suffix is complete and consistent (a
//     dropped snapshot with no repair surfaces here);
//   - Result.Left and Result.NeverJoined agree with the trace: exactly
//     the ranks whose graceful departure was announced, and exactly the
//     join-schedule ranks never admitted.
type membershipChecker struct {
	violations
	count uint32

	// expectChurn is whether the fault schedule contains join or leave
	// events; without it, all membership traffic is spurious.
	expectChurn bool

	absent     map[core.NodeID]bool          // awaiting admission
	joinBase   map[core.NodeID]uint32        // admitted joiners → announced base
	admittedAt map[core.NodeID]time.Duration // TypeJoined announcement time
	joinOKAt   map[core.NodeID]time.Duration // node received its JoinOK
	left       map[core.NodeID]time.Duration // granted departures
	ejected    map[core.NodeID]bool
	// have tracks post-admission reception coverage per joiner: the
	// exactly-once consistent-suffix evidence a delivery must rest on.
	have map[core.NodeID][]bool
}

func newMembershipChecker() *membershipChecker {
	return &membershipChecker{violations: violations{name: "membership"}}
}

func (c *membershipChecker) Begin(info *RunInfo) {
	c.count = info.Count
	c.expectChurn = info.Cluster.Faults != nil && info.Cluster.Faults.HasChurn()
	c.absent = make(map[core.NodeID]bool, len(info.Proto.Absent))
	for _, a := range info.Proto.Absent {
		c.absent[a] = true
	}
	c.joinBase = make(map[core.NodeID]uint32)
	c.admittedAt = make(map[core.NodeID]time.Duration)
	c.joinOKAt = make(map[core.NodeID]time.Duration)
	c.left = make(map[core.NodeID]time.Duration)
	c.ejected = make(map[core.NodeID]bool)
	c.have = make(map[core.NodeID][]bool)
}

// membershipType reports whether t only exists for dynamic membership.
func membershipType(t packet.Type) bool {
	switch t {
	case packet.TypeJoinReq, packet.TypeJoinOK, packet.TypeJoined,
		packet.TypeSnap, packet.TypeSnapDel, packet.TypeLeave, packet.TypeLeft:
		return true
	}
	return false
}

func (c *membershipChecker) Observe(e trace.Event) {
	if !c.expectChurn && membershipType(e.Type) && e.Dir != trace.Drop {
		c.addf("membership packet %s at node %d (dir %v) in a run with no churn scheduled",
			e.Type, e.Node, e.Dir)
		return
	}
	if e.Node == 0 {
		c.observeSender(e)
		return
	}
	rank := core.NodeID(e.Node)
	switch e.Dir {
	case trace.Send, trace.SendMC:
		if _, ok := c.joinOKAt[rank]; c.absent[rank] && !ok &&
			e.Type != packet.TypeJoinReq && e.Type != packet.TypeHello {
			c.addf("rank %d sent %s at t=%v before its admission", rank, e.Type, e.At)
		}
		if e.Type == packet.TypeSnap && e.Dir == trace.Send {
			// A delegate's snapshots obey the same discipline as the
			// sender's own.
			c.checkSnap(core.NodeID(e.Peer), e)
		}
	case trace.Recv:
		switch e.Type {
		case packet.TypeJoinOK:
			if _, ok := c.joinOKAt[rank]; !ok {
				c.joinOKAt[rank] = e.At
				if !c.absent[rank] {
					c.addf("rank %d received a TypeJoinOK but never started absent", rank)
				}
			}
		case packet.TypeData, packet.TypeSnap:
			// Post-admission coverage for joiners only: data the absent
			// receiver overheard before its JoinOK was dropped by its
			// not-yet-a-member gate and may not support a delivery.
			if _, ok := c.joinOKAt[rank]; !ok || !c.absent[rank] {
				return
			}
			h := c.have[rank]
			if h == nil {
				h = make([]bool, c.count)
				c.have[rank] = h
			}
			if e.Seq < c.count {
				h[e.Seq] = true
			}
		}
	}
}

func (c *membershipChecker) observeSender(e trace.Event) {
	switch {
	case e.Dir == trace.SendMC && e.Type == packet.TypeJoined:
		rank := core.NodeID(e.Aux)
		if _, dup := c.admittedAt[rank]; dup {
			c.addf("rank %d admitted twice (second TypeJoined at t=%v)", rank, e.At)
			return
		}
		if !c.absent[rank] {
			c.addf("TypeJoined announced for rank %d, which never started absent", rank)
			return
		}
		c.admittedAt[rank] = e.At
		c.joinBase[rank] = e.Seq
	case e.Dir == trace.SendMC && e.Type == packet.TypeLeft:
		rank := core.NodeID(e.Aux)
		if _, dup := c.left[rank]; dup {
			c.addf("rank %d departed twice (second TypeLeft at t=%v)", rank, e.At)
			return
		}
		if c.ejected[rank] {
			c.addf("rank %d announced as departed at t=%v after already being ejected", rank, e.At)
		}
		c.left[rank] = e.At
	case e.Dir == trace.SendMC && e.Type == packet.TypeEject:
		c.ejected[core.NodeID(e.Aux)] = true
	case e.Dir == trace.Send && e.Type == packet.TypeSnap:
		c.checkSnap(core.NodeID(e.Peer), e)
	}
}

// checkSnap applies the snapshot discipline to one snapshot
// transmission, from the sender or a delegate alike.
func (c *membershipChecker) checkSnap(to core.NodeID, e trace.Event) {
	base, joiner := c.joinBase[to]
	if !joiner {
		c.addf("snapshot seq %d sent to rank %d, which is not an admitted joiner", e.Seq, to)
		return
	}
	if e.Seq >= base {
		c.addf("snapshot seq %d sent to rank %d at or above its join base %d", e.Seq, to, base)
	}
}

func (c *membershipChecker) Finish(info *RunInfo) []Violation {
	res := info.Result
	// Joiner deliveries must rest on complete post-admission reception.
	delivered := make(map[core.NodeID]bool, len(info.Deliveries))
	for _, d := range info.Deliveries {
		delivered[d.Rank] = true
	}
	for rank := range c.absent {
		if !delivered[rank] {
			continue
		}
		if _, ok := c.admittedAt[rank]; !ok {
			c.addf("rank %d delivered the message but was never admitted", rank)
			continue
		}
		h := c.have[rank]
		for seq := uint32(0); seq < c.count; seq++ {
			if h == nil || !h[seq] {
				c.addf("late joiner %d delivered without receiving seq %d after admission (snapshot lost and never repaired?)",
					rank, seq)
				break
			}
		}
	}
	if res == nil {
		return c.take()
	}
	// Result.Left must be exactly the granted departures.
	traceLeft := make([]core.NodeID, 0, len(c.left))
	for r := range c.left {
		traceLeft = append(traceLeft, r)
	}
	sort.Slice(traceLeft, func(i, j int) bool { return traceLeft[i] < traceLeft[j] })
	resLeft := append([]core.NodeID(nil), res.Left...)
	sort.Slice(resLeft, func(i, j int) bool { return resLeft[i] < resLeft[j] })
	if !equalRanks(traceLeft, resLeft) {
		c.addf("Result.Left %v disagrees with the departures announced in the trace %v", res.Left, traceLeft)
	}
	// Result.NeverJoined must be exactly the absent ranks never admitted.
	var never []core.NodeID
	for r := range c.absent {
		if _, ok := c.admittedAt[r]; !ok {
			never = append(never, r)
		}
	}
	sort.Slice(never, func(i, j int) bool { return never[i] < never[j] })
	resNever := append([]core.NodeID(nil), res.NeverJoined...)
	sort.Slice(resNever, func(i, j int) bool { return resNever[i] < resNever[j] })
	if !equalRanks(never, resNever) {
		c.addf("Result.NeverJoined %v disagrees with the trace's never-admitted ranks %v", res.NeverJoined, never)
	}
	return c.take()
}

func equalRanks(a, b []core.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
