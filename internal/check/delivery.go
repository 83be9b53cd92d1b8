package check

import (
	"sort"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/packet"
	"rmcast/internal/trace"
)

// deliveryChecker verifies exactly-once, complete, uncorrupted delivery:
//
//   - no receiver's delivery callback fires more than once per session;
//   - a delivery only happens after every data sequence of the message
//     was received by that node (first-reception times bound the
//     delivery instant);
//   - delivered payloads are byte-identical to the sent message;
//   - Result.Delivered is exactly the set of ranks with a correct
//     delivery.
//
// It shadows reception from the trace: one first-seen timestamp per
// (receiver, sequence).
type deliveryChecker struct {
	violations
	count     uint32
	firstRecv map[core.NodeID][]time.Duration // -1: not yet received
}

func newDeliveryChecker() *deliveryChecker {
	return &deliveryChecker{violations: violations{name: "delivery"}}
}

func (c *deliveryChecker) Begin(info *RunInfo) {
	c.count = info.Count
	c.firstRecv = make(map[core.NodeID][]time.Duration, info.Proto.NumReceivers)
}

func (c *deliveryChecker) Observe(e trace.Event) {
	if e.Dir != trace.Recv || e.Node == 0 ||
		(e.Type != packet.TypeData && e.Type != packet.TypeSnap) {
		return // snapshots carry catch-up data: they count as receptions
	}
	rank := core.NodeID(e.Node)
	times := c.firstRecv[rank]
	if times == nil {
		times = make([]time.Duration, c.count)
		for i := range times {
			times[i] = -1
		}
		c.firstRecv[rank] = times
	}
	if e.Seq < c.count && times[e.Seq] < 0 {
		times[e.Seq] = e.At
	}
}

func (c *deliveryChecker) Finish(info *RunInfo) []Violation {
	seen := map[core.NodeID]int{}
	okDelivered := map[core.NodeID]bool{}
	for _, d := range info.Deliveries {
		seen[d.Rank]++
		if seen[d.Rank] > 1 {
			c.addf("receiver %d delivered the message %d times (duplicate delivery at t=%v)",
				d.Rank, seen[d.Rank], d.At)
		}
		if !d.OK {
			c.addf("receiver %d delivered a corrupted payload (%d bytes, want %d)",
				d.Rank, d.Len, info.MsgSize)
		} else {
			okDelivered[d.Rank] = true
		}
		times := c.firstRecv[d.Rank]
		if times == nil {
			c.addf("receiver %d delivered at t=%v without receiving any data packet", d.Rank, d.At)
			continue
		}
		for seq := uint32(0); seq < c.count; seq++ {
			if times[seq] < 0 {
				c.addf("receiver %d delivered at t=%v without ever receiving seq %d", d.Rank, d.At, seq)
				break
			}
			if times[seq] > d.At {
				c.addf("receiver %d delivered at t=%v before first receiving seq %d (at t=%v)",
					d.Rank, d.At, seq, times[seq])
				break
			}
		}
	}
	if res := info.Result; res != nil {
		if !sort.SliceIsSorted(res.Delivered, func(i, j int) bool { return res.Delivered[i] < res.Delivered[j] }) {
			c.addf("Result.Delivered is not sorted: %v", res.Delivered)
		}
		inResult := map[core.NodeID]bool{}
		for _, r := range res.Delivered {
			if inResult[r] {
				c.addf("Result.Delivered lists receiver %d twice", r)
			}
			inResult[r] = true
			if !okDelivered[r] {
				c.addf("Result.Delivered lists receiver %d but no correct delivery was observed", r)
			}
		}
		for r := range okDelivered {
			if !inResult[r] {
				c.addf("receiver %d delivered the full message but Result.Delivered omits it", r)
			}
		}
	}
	return c.take()
}

// completionChecker verifies the session's verdict against its own
// membership bookkeeping:
//
//   - a completed, error-free session delivered to every receiver in
//     its final membership — not ejected, not departed gracefully, not
//     still waiting for admission — and says so (Verified);
//   - a session that did not complete returned an error;
//   - the metrics ejection counter, Result.Failed, and the error type
//     agree.
type completionChecker struct {
	violations
}

func newCompletionChecker() *completionChecker {
	return &completionChecker{violations: violations{name: "completion"}}
}

func (c *completionChecker) Begin(*RunInfo)      {}
func (c *completionChecker) Observe(trace.Event) {}

func (c *completionChecker) Finish(info *RunInfo) []Violation {
	res := info.Result
	if res == nil {
		return c.take()
	}
	exempt := map[core.NodeID]bool{}
	for _, f := range res.Failed {
		exempt[f] = true
	}
	for _, l := range res.Left {
		exempt[l] = true
	}
	for _, n := range res.NeverJoined {
		exempt[n] = true
	}
	delivered := map[core.NodeID]bool{}
	for _, d := range res.Delivered {
		delivered[d] = true
	}
	if res.Completed && info.RunErr == nil {
		for r := 1; r <= info.Proto.NumReceivers; r++ {
			id := core.NodeID(r)
			if !exempt[id] && !delivered[id] {
				c.addf("session completed without error but surviving receiver %d never delivered", r)
			}
		}
		if !res.Verified {
			c.addf("session completed without error but Result.Verified is false")
		}
	}
	if !res.Completed && info.RunErr == nil {
		c.addf("session did not complete but no error was returned")
	}
	return c.take()
}
