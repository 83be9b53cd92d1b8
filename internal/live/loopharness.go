package live

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/metrics"
	"rmcast/internal/trace"
)

// LoopScenario describes one end-to-end transfer over a loopback
// network: the full live stack — discovery, allocation, data,
// repair, heartbeats, ejection — under a deterministic virtual clock.
type LoopScenario struct {
	// Net configures the loopback network (seed, delay, jitter, loss).
	Net LoopConfig
	// Protocol is the shared protocol configuration. NumReceivers sets
	// the node count.
	Protocol core.Config
	// MsgSize is the transferred message size in bytes.
	MsgSize int
	// HelloInterval/PeerTimeout override the live defaults. Virtual
	// time is free, so scenarios shorten these to keep runs quick
	// (defaults: 10ms hello, 5× peer timeout).
	HelloInterval time.Duration
	PeerTimeout   time.Duration
	// Crash closes receiver nodes mid-run: rank → virtual close time.
	Crash map[core.NodeID]time.Duration
	// Join schedules late admissions: rank → virtual time the node asks
	// to join. Join ranks start the run absent — Protocol.Absent is
	// derived from this map, overriding whatever the caller set.
	Join map[core.NodeID]time.Duration
	// Leave schedules graceful departures: rank → virtual leave time.
	Leave map[core.NodeID]time.Duration
	// Horizon bounds the virtual run time (default 2 minutes). A
	// scenario that has not completed by then reports SendDone=false.
	Horizon time.Duration
}

// LoopDelivery records one receiver delivery callback.
type LoopDelivery struct {
	Rank core.NodeID
	At   time.Duration
	Len  int
	OK   bool // payload byte-identical to the sent message
}

// LoopResult is everything one loopback session observably produced.
type LoopResult struct {
	// Trace is the complete chronological packet event stream across
	// all nodes: an exact-size slice that is the caller's own, shared
	// with no later run.
	Trace []trace.Event
	// SendDone reports whether the sender's completion hook fired
	// before the horizon; SendErr is what it reported (nil, or a
	// *core.PartialResult after ejections).
	SendDone bool
	SendErr  error
	// Elapsed is virtual time from session start to sender completion.
	Elapsed time.Duration
	// Delivered lists ranks that delivered byte-identical copies,
	// ascending; Failed lists the ranks the sender ejected, in order.
	Delivered []core.NodeID
	Failed    []core.NodeID
	// Left lists ranks whose graceful leave the sender granted, in
	// departure order; NeverJoined lists scheduled joiners the sender
	// never admitted, ascending.
	Left        []core.NodeID
	NeverJoined []core.NodeID
	// Deliveries lists every delivery callback invocation, in order.
	Deliveries []LoopDelivery
	// SenderStats is the sender state machine's counters.
	SenderStats core.SenderStats
	// Metrics aggregates every node's metrics session into one
	// cluster-style snapshot; NodeMetrics keeps the per-node views
	// (index = rank).
	Metrics     metrics.Metrics
	NodeMetrics []metrics.Metrics
}

// loopPattern is the deterministic payload every loopback scenario
// transfers — the same formula as cluster.MakeMessage, so simulator and
// loopback runs of one scenario move identical bytes.
func loopPattern(n int) []byte {
	b := make([]byte, n)
	fillPattern(b)
	return b
}

// fillPattern writes loopPattern(len(b)) into b.
func fillPattern(b []byte) {
	for i := range b {
		b[i] = byte(i*131 + 17)
	}
}

// RunLoopScenario executes one scenario start to finish on the calling
// goroutine and returns what happened. Runs are deterministic: the same
// scenario (including Net.Seed) produces the identical event trace.
func RunLoopScenario(sc LoopScenario) (*LoopResult, error) {
	if sc.HelloInterval == 0 {
		sc.HelloInterval = 10 * time.Millisecond
	}
	if sc.Horizon == 0 {
		sc.Horizon = 2 * time.Minute
	}
	// Join ranks start the run absent; every node shares the derived
	// list (the sender seeds its out-set from it, peers their chain
	// views), exactly as cluster.Run derives it from a fault
	// schedule.
	if len(sc.Join) > 0 {
		sc.Protocol.Absent = nil
		for rank := range sc.Join {
			sc.Protocol.Absent = append(sc.Protocol.Absent, rank)
		}
		sort.Slice(sc.Protocol.Absent, func(i, j int) bool {
			return sc.Protocol.Absent[i] < sc.Protocol.Absent[j]
		})
	}

	// The message and the trace scratch are the net's stock, kept from
	// an earlier run; the trace is copied out exact-size at the end.
	ln := NewLoopNet(sc.Net)
	res := &LoopResult{}
	msg := slices.Grow(ln.msg[:0], sc.MsgSize)[:sc.MsgSize]
	fillPattern(msg)
	ln.msg = msg

	buf := trace.New(16)
	buf.SetSink(64, func(batch []trace.Event) {
		ln.events = append(ln.events, batch...)
	})

	nodes := make([]*Node, sc.Protocol.NumReceivers+1)
	for r := 0; r <= sc.Protocol.NumReceivers; r++ {
		rank := core.NodeID(r)
		cfg := Config{
			Rank:          rank,
			Protocol:      sc.Protocol,
			HelloInterval: sc.HelloInterval,
			PeerTimeout:   sc.PeerTimeout,
			Trace:         buf,
		}
		if r != 0 {
			cfg.OnDeliver = func(at time.Duration, payload []byte) {
				res.Deliveries = append(res.Deliveries, LoopDelivery{
					Rank: rank,
					At:   at,
					Len:  len(payload),
					OK:   bytes.Equal(payload, msg),
				})
			}
		}
		n, err := ln.Node(cfg)
		if err != nil {
			return nil, fmt.Errorf("live: loopback rank %d: %w", r, err)
		}
		nodes[r] = n
	}

	// Schedule failure and membership events in rank order so
	// same-instant events fire in a reproducible sequence.
	schedule := func(what string, m map[core.NodeID]time.Duration, act func(*Node)) error {
		ranks := make([]core.NodeID, 0, len(m))
		for rank := range m {
			ranks = append(ranks, rank)
		}
		sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
		for _, rank := range ranks {
			if int(rank) < 1 || int(rank) >= len(nodes) {
				return fmt.Errorf("live: %s rank %d out of range", what, rank)
			}
			nd := nodes[rank]
			ln.At(m[rank], func() { act(nd) })
		}
		return nil
	}
	if err := schedule("crash", sc.Crash, func(nd *Node) { nd.Close() }); err != nil {
		return nil, err
	}
	if err := schedule("join", sc.Join, func(nd *Node) { nd.Join() }); err != nil {
		return nil, err
	}
	if err := schedule("leave", sc.Leave, func(nd *Node) { nd.Leave() }); err != nil {
		return nil, err
	}

	sender := nodes[0]
	ln.At(0, func() {
		sender.startSend(msg, func(err error) {
			res.SendDone = true
			res.SendErr = err
			res.Elapsed = ln.Now()
		})
	})

	// Drive in slices so the loop stops soon after completion instead
	// of simulating heartbeats out to the horizon.
	const slice = 10 * time.Millisecond
	for !res.SendDone && ln.Now() < sc.Horizon {
		end := ln.Now() + slice
		if end > sc.Horizon {
			end = sc.Horizon
		}
		ln.Run(end)
	}
	// Grace period: let in-flight trailing datagrams (final acks, eject
	// confirmations) land so the trace is causally complete.
	ln.Run(ln.Now() + 4*(ln.cfg.Delay+ln.cfg.Jitter) + time.Millisecond)

	for _, n := range nodes {
		n.Close()
	}
	buf.Flush()
	res.Trace = make([]trace.Event, len(ln.events))
	copy(res.Trace, ln.events)
	ln.release()

	if sender.snd != nil {
		res.SenderStats = sender.snd.Stats()
		res.Failed = append(res.Failed, sender.snd.Failed()...)
		res.Left = append(res.Left, sender.snd.Left()...)
		res.NeverJoined = append(res.NeverJoined, sender.snd.NeverJoined()...)
	}
	okDelivered := make(map[core.NodeID]bool)
	for _, d := range res.Deliveries {
		if d.OK {
			okDelivered[d.Rank] = true
		}
	}
	for r := 1; r <= sc.Protocol.NumReceivers; r++ {
		if okDelivered[core.NodeID(r)] {
			res.Delivered = append(res.Delivered, core.NodeID(r))
		}
	}
	res.NodeMetrics = make([]metrics.Metrics, len(nodes))
	for r, n := range nodes {
		res.NodeMetrics[r] = n.Metrics()
	}
	res.Metrics = metrics.Merge(res.NodeMetrics...)
	return res, nil
}
