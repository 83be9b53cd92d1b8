package live

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"rmcast/internal/core"
	"rmcast/internal/packet"
	"rmcast/internal/trace"
)

// digestLoopResult fingerprints everything a loopback run observably
// produced: every trace event plus the outcome summary. Two runs with
// the same scenario must produce the same digest — that is the
// determinism contract of the loopback transport.
func digestLoopResult(res *LoopResult) string {
	h := sha256.New()
	for i := range res.Trace {
		fmt.Fprintln(h, res.Trace[i].String())
	}
	fmt.Fprintln(h, res.SendDone, res.SendErr, res.Elapsed, res.Delivered, res.Failed)
	return hex.EncodeToString(h.Sum(nil))
}

func TestLoopbackDeterministicDigest(t *testing.T) {
	sc := LoopScenario{
		Net: LoopConfig{Seed: 42, Delay: 100 * time.Microsecond,
			Jitter: 50 * time.Microsecond, LossRate: 0.03},
		Protocol: core.Config{
			Protocol:     core.ProtoNAK,
			NumReceivers: 5,
			PacketSize:   1400,
			WindowSize:   16,
			PollInterval: 13,
		},
		MsgSize: 120000,
	}
	run := func() *LoopResult {
		res, err := RunLoopScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !res.SendDone || res.SendErr != nil {
			t.Fatalf("transfer did not complete cleanly: done=%v err=%v", res.SendDone, res.SendErr)
		}
		if len(res.Delivered) != sc.Protocol.NumReceivers {
			t.Fatalf("delivered to %v, want all %d receivers", res.Delivered, sc.Protocol.NumReceivers)
		}
		return res
	}
	a, b := run(), run()
	da, db := digestLoopResult(a), digestLoopResult(b)
	if da != db {
		t.Fatalf("identical scenarios diverged:\n  run1 %s (%d events)\n  run2 %s (%d events)",
			da, len(a.Trace), db, len(b.Trace))
	}
	// And the seed is load-bearing: a different seed draws different
	// loss/jitter and must produce a different run.
	sc.Net.Seed = 43
	if dc := digestLoopResult(run()); dc == da {
		t.Fatal("changing the seed did not change the run")
	}
}

// TestLoopbackAdaptiveCutsRetransmissions pins the point of adaptive
// retransmission timers: with a fixed timeout far below the actual
// round trip, the sender floods spurious retransmissions; the RTT
// estimator learns the real latency from the same traffic and backs
// the timer off to it.
func TestLoopbackAdaptiveCutsRetransmissions(t *testing.T) {
	base := core.Config{
		Protocol:       core.ProtoACK,
		NumReceivers:   4,
		PacketSize:     1400,
		WindowSize:     4,
		RetransTimeout: 300 * time.Microsecond, // well below the ~1.2ms RTT
	}
	run := func(adaptive bool) *LoopResult {
		pcfg := base
		pcfg.AdaptiveRTO = adaptive
		res, err := RunLoopScenario(LoopScenario{
			Net: LoopConfig{Seed: 7, Delay: 500 * time.Microsecond,
				Jitter: 100 * time.Microsecond, LossRate: 0.05},
			Protocol: pcfg,
			MsgSize:  80000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.SendDone || res.SendErr != nil {
			t.Fatalf("adaptive=%v: transfer did not complete cleanly: done=%v err=%v",
				adaptive, res.SendDone, res.SendErr)
		}
		return res
	}
	fixed, adaptive := run(false), run(true)
	ft := fixed.Metrics.Retransmissions
	at := adaptive.Metrics.Retransmissions
	t.Logf("retransmissions: fixed=%d adaptive=%d (timeouts %d vs %d)",
		ft, at, fixed.SenderStats.Timeouts, adaptive.SenderStats.Timeouts)
	if at >= ft {
		t.Fatalf("adaptive timers did not cut retransmissions: fixed=%d adaptive=%d", ft, at)
	}
	if adaptive.Metrics.SRTT == 0 {
		t.Error("adaptive run recorded no smoothed RTT")
	}
	if adaptive.Metrics.RTTHist == nil || adaptive.Metrics.RTTHist.Count == 0 {
		t.Error("adaptive run recorded no RTT samples")
	}
	if fixed.Metrics.RTTHist != nil {
		t.Error("fixed-timeout run unexpectedly recorded RTT samples")
	}
}

// TestLoopbackTimerQueueDrains pins the lifecycle of the timer events
// live nodes put on the network's queue: across repeated transfers the
// events left waiting between transfers do not grow (each armed timer
// fires or is cancelled), and once every node is closed its hello tick
// and timers leave the queue within a hello interval plus an RTO.
func TestLoopbackTimerQueueDrains(t *testing.T) {
	const hello = 5 * time.Millisecond
	ln := NewLoopNet(LoopConfig{Seed: 11})
	pcfg := core.Config{
		Protocol:     core.ProtoACK,
		NumReceivers: 3,
		PacketSize:   1400,
		WindowSize:   4,
	}
	var nodes []*Node
	for r := 0; r <= pcfg.NumReceivers; r++ {
		n, err := ln.Node(Config{Rank: core.NodeID(r), Protocol: pcfg, HelloInterval: hello})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	// settle lets trailing work land, then stops 1ms short of the next
	// hello tick, when no hello or reply is in flight: every pending
	// event is then a hello tick or a node timer.
	settle := func() int {
		ln.Run(ln.Now() + 50*time.Millisecond)
		ln.Run((ln.Now()/hello+1)*hello - time.Millisecond)
		return ln.sim.Pending()
	}
	sender := nodes[0]
	var pending []int
	for round := 0; round < 3; round++ {
		msg := loopPattern(30000 + round*1111)
		done := false
		var sendErr error
		sender.startSend(msg, func(err error) { done = true; sendErr = err })
		deadline := ln.Now() + 5*time.Second
		for !done && ln.Now() < deadline {
			ln.Run(ln.Now() + 10*time.Millisecond)
		}
		if !done || sendErr != nil {
			t.Fatalf("round %d: done=%v err=%v", round, done, sendErr)
		}
		pending = append(pending, settle())
	}
	if pending[0] < len(nodes) {
		t.Fatalf("%d events pending after round 1, fewer than the %d nodes' hello ticks", pending[0], len(nodes))
	}
	if pending[2] > pending[0] {
		t.Errorf("events pending between transfers grew from %d after round 1 to %d after round 3; timers are leaking",
			pending[0], pending[2])
	}
	for _, n := range nodes {
		n.Close()
	}
	norm, err := pcfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ln.Run(ln.Now() + hello + norm.RetransTimeout)
	if got := ln.sim.Pending(); got != 0 {
		t.Errorf("%d events still pending after every node closed", got)
	}
}

// TestLoopbackPeerExpiryCompletesOnce crashes a receiver mid-transfer
// and pins two contracts at once: heartbeat expiry ejects the silent
// peer so the transfer completes for the survivors, and the Send
// completion hook fires exactly once even though ejection re-enters
// the sender's completion path while acknowledgments are in flight.
func TestLoopbackPeerExpiryCompletesOnce(t *testing.T) {
	ln := NewLoopNet(LoopConfig{Seed: 5})
	pcfg := core.Config{
		Protocol:     core.ProtoACK,
		NumReceivers: 4,
		PacketSize:   1400,
		WindowSize:   2,
		MaxRetries:   3,
	}
	var nodes []*Node
	deliveredBy := map[core.NodeID]bool{}
	for r := 0; r <= pcfg.NumReceivers; r++ {
		rank := core.NodeID(r)
		cfg := Config{Rank: rank, Protocol: pcfg,
			HelloInterval: time.Millisecond, PeerTimeout: 4 * time.Millisecond}
		if r != 0 {
			cfg.OnDeliver = func(time.Duration, []byte) { deliveredBy[rank] = true }
		}
		n, err := ln.Node(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	sender := nodes[0]
	const victim = core.NodeID(2)
	ln.At(3*time.Millisecond, func() { nodes[victim].Close() })

	doneCount := 0
	var sendErr error
	// ~143 data packets at window 2 keep the session running well past
	// the crash plus the peer timeout.
	sender.startSend(loopPattern(200000), func(err error) {
		doneCount++
		sendErr = err
	})
	deadline := ln.Now() + 10*time.Second
	for doneCount == 0 && ln.Now() < deadline {
		ln.Run(ln.Now() + 10*time.Millisecond)
	}
	// Keep driving a while longer: a buggy completion path fires the
	// hook again on the trailing acknowledgments.
	ln.Run(ln.Now() + 100*time.Millisecond)

	if doneCount != 1 {
		t.Fatalf("send completion hook fired %d times, want exactly 1", doneCount)
	}
	var pr *core.PartialResult
	if !errors.As(sendErr, &pr) {
		t.Fatalf("Send outcome is %T (%v), want *core.PartialResult", sendErr, sendErr)
	}
	if len(pr.Failed) != 1 || pr.Failed[0] != victim {
		t.Fatalf("Failed = %v, want [%d]", pr.Failed, victim)
	}
	if len(pr.Delivered) != pcfg.NumReceivers-1 {
		t.Fatalf("Delivered = %v, want the %d survivors", pr.Delivered, pcfg.NumReceivers-1)
	}
	for r := 1; r <= pcfg.NumReceivers; r++ {
		rank := core.NodeID(r)
		if rank == victim {
			continue
		}
		if !deliveredBy[rank] {
			t.Errorf("survivor %d never delivered the message", rank)
		}
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestLiveCloseLeaksNoGoroutines pins the shutdown lifecycle of the
// real UDP node: after Close returns, every goroutine the node spawned
// has exited — the event loop and the two socket readers; hellos and
// timers are events on the loop's own queue, so no ticker goroutine
// exists — even when the node is torn down mid-transfer with callbacks
// still queued.
func TestLiveCloseLeaksNoGoroutines(t *testing.T) {
	multicastAvailable(t)
	before := runtime.NumGoroutine()
	pcfg := core.Config{Protocol: core.ProtoACK, NumReceivers: 2, PacketSize: 1200, WindowSize: 4}
	group := testGroup()
	var nodes []*Node
	for r := 0; r <= 2; r++ {
		n, err := NewNode(Config{Group: group, Rank: core.NodeID(r), Protocol: pcfg,
			HelloInterval: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	// Tear everything down mid-discovery/transfer, with hellos flying.
	errCh := make(chan error, 1)
	nodes[0].startSend(livePattern(200000), func(err error) { errCh <- err })
	time.Sleep(30 * time.Millisecond)
	for _, n := range nodes {
		n.Close()
	}
	// The runtime reclaims stacks asynchronously; poll with a deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLoopbackGarbageCountsCorrupt: stray and truncated datagrams at a
// node are counted as corrupt frames and reach no endpoint, under
// either wire format — the simulator's rule, which a v1 live node used
// to break by dropping them silently.
func TestLoopbackGarbageCountsCorrupt(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		ln := NewLoopNet(LoopConfig{Seed: 7})
		pcfg := core.Config{Protocol: core.ProtoACK, NumReceivers: 1, PacketSize: 1400, WindowSize: 4, WireV2: v2}
		delivered := 0
		var nodes []*Node
		for r := 0; r <= 1; r++ {
			n, err := ln.Node(Config{Rank: core.NodeID(r), Protocol: pcfg, HelloInterval: 10 * time.Millisecond,
				OnDeliver: func(time.Duration, []byte) { delivered++ }})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		ln.Run(time.Millisecond) // discovery
		rcv := nodes[1]
		before := rcv.Metrics()
		garbage := [][]byte{{}, []byte("not a frame at all"), {0xA7, 1, 0xFF}, {0xA7, 2, 3, 0, 0, 0}}
		ln.At(2*time.Millisecond, func() { // on the driver, which is the nodes' event loop
			for _, g := range garbage {
				rcv.onWire(g, nodes[0].LocalAddr().AddrPort())
			}
		})
		ln.Run(3 * time.Millisecond)
		after := rcv.Metrics()
		if got := after.CorruptFrames - before.CorruptFrames; got != uint64(len(garbage)) {
			t.Errorf("WireV2=%v: corrupt_frames rose by %d, want %d", v2, got, len(garbage))
		}
		if after.TotalReceived() != before.TotalReceived() || delivered != 0 {
			t.Errorf("WireV2=%v: garbage reached the endpoint: %d packets received, %d deliveries",
				v2, after.TotalReceived()-before.TotalReceived(), delivered)
		}
		for _, n := range nodes {
			n.Close()
		}
	}
}

// TestLoopbackNodeRefusesBadConfig: an invalid protocol configuration
// is refused when the node is built, on the sender rank too and under
// either wire format, not at the first Send after discovery.
func TestLoopbackNodeRefusesBadConfig(t *testing.T) {
	for name, pcfg := range map[string]core.Config{
		"v1 zero window":     {Protocol: core.ProtoACK, NumReceivers: 1, PacketSize: 1400},
		"v2 oversize":        {Protocol: core.ProtoACK, NumReceivers: 1, PacketSize: core.MaxPacketSize, WindowSize: 4, WireV2: true},
		"v2 MTU below floor": {Protocol: core.ProtoACK, NumReceivers: 1, PacketSize: 1400, WindowSize: 4, WireV2: true, CoalesceMTU: 10},
	} {
		for r := 0; r <= 1; r++ {
			if _, err := NewLoopNet(LoopConfig{}).Node(Config{Rank: core.NodeID(r), Protocol: pcfg}); err == nil {
				t.Errorf("%s: rank %d built a node", name, r)
			}
		}
	}
}

// runUntil drives ln in 10 ms slices until done is set or 5 s of
// virtual time have passed.
func runUntil(ln *LoopNet, done *bool) {
	for deadline := ln.Now() + 5*time.Second; !*done && ln.Now() < deadline; {
		ln.Run(ln.Now() + 10*time.Millisecond)
	}
}

// TestLoopbackRecvQEvictions: a receiver whose application never calls
// Recv keeps the newest 16 messages and counts every one it evicted.
func TestLoopbackRecvQEvictions(t *testing.T) {
	const msgs = 20
	ln := NewLoopNet(LoopConfig{Seed: 5})
	pcfg := core.Config{Protocol: core.ProtoACK, NumReceivers: 1, PacketSize: 1000, WindowSize: 4}
	var nodes []*Node
	for r := 0; r <= 1; r++ {
		n, err := ln.Node(Config{Rank: core.NodeID(r), Protocol: pcfg, HelloInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for i := 0; i < msgs; i++ {
		done := false
		var sendErr error
		nodes[0].startSend(loopPattern(3000), func(err error) { done, sendErr = true, err })
		runUntil(ln, &done)
		if !done || sendErr != nil {
			t.Fatalf("message %d: done=%v err=%v", i, done, sendErr)
		}
	}
	rcv := nodes[1]
	if got := rcv.Metrics().RecvQEvictions; got != 4 {
		t.Errorf("recvq_evictions = %d, want 4", got)
	}
	if got := len(rcv.recvQ); got != cap(rcv.recvQ) {
		t.Errorf("receive queue holds %d messages, want a full %d", got, cap(rcv.recvQ))
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestLoopbackSpoofedFrameKeepsAddress: a data or ack frame with a
// valid header that names a known rank from a new address does not
// re-point that rank's unicast traffic, and the transfer in flight
// completes.
func TestLoopbackSpoofedFrameKeepsAddress(t *testing.T) {
	ln := NewLoopNet(LoopConfig{Seed: 9})
	pcfg := core.Config{Protocol: core.ProtoACK, NumReceivers: 2, PacketSize: 1000, WindowSize: 4}
	delivered := 0
	var nodes []*Node
	for r := 0; r <= 2; r++ {
		n, err := ln.Node(Config{Rank: core.NodeID(r), Protocol: pcfg, HelloInterval: 5 * time.Millisecond,
			OnDeliver: func(time.Duration, []byte) { delivered++ }})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	ln.Run(time.Millisecond) // discovery
	known := make([]map[core.NodeID]netip.AddrPort, len(nodes))
	for i, n := range nodes {
		known[i] = maps.Clone(n.addrs)
		if len(n.addrs) != len(nodes)-1 {
			t.Fatalf("rank %d knows %d peers after discovery, want %d", i, len(n.addrs), len(nodes)-1)
		}
	}
	spoof := netip.MustParseAddrPort("127.0.9.200:31337")
	done := false
	var sendErr error
	nodes[0].startSend(loopPattern(50000), func(err error) { done, sendErr = true, err })
	ln.At(ln.Now()+500*time.Microsecond, func() { // on the driver, which is the nodes' event loop
		nodes[0].onWire((&packet.Packet{Type: packet.TypeAck, Src: 1, MsgID: 0xBAD, Seq: 7}).Encode(), spoof)
		nodes[1].onWire((&packet.Packet{Type: packet.TypeData, Src: 0, MsgID: 0xBAD, Payload: []byte("x")}).Encode(), spoof)
		for i, n := range nodes {
			if !maps.Equal(n.addrs, known[i]) {
				t.Errorf("rank %d re-pointed a peer on a spoofed frame: %v, was %v", i, n.addrs, known[i])
			}
		}
	})
	runUntil(ln, &done)
	if !done || sendErr != nil || delivered != 2 {
		t.Fatalf("transfer after spoofing: done=%v err=%v deliveries=%d", done, sendErr, delivered)
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestCloseReleasesReceiver: Close hands a receiver rank's message
// buffer back, over loopback and over UDP, so the finished session is
// inactive — a late duplicate is dropped without being examined — and
// a second Close changes nothing.
func TestCloseReleasesReceiver(t *testing.T) {
	// probe feeds the receiver a duplicate of its session's first data
	// packet and reports whether it was examined as one.
	probe := func(n *Node) bool {
		r := n.ep.(*core.Receiver)
		before := r.Stats().Duplicates
		r.OnPacket(core.SenderID, &packet.Packet{Type: packet.TypeData, MsgID: n.curMsgID})
		return r.Stats().Duplicates > before
	}
	check := func(t *testing.T, closed, open *Node) {
		t.Helper()
		closed.Close()
		if probe(closed) {
			t.Error("a closed receiver still holds its session")
		}
		closed.Close()
		if probe(closed) {
			t.Error("a second Close revived the session")
		}
		if open != nil && !probe(open) {
			t.Error("the probe does not detect a live session")
		}
	}
	t.Run("loopback", func(t *testing.T) {
		ln := NewLoopNet(LoopConfig{Seed: 3})
		pcfg := core.Config{Protocol: core.ProtoACK, NumReceivers: 2, PacketSize: 1000, WindowSize: 4}
		var nodes []*Node
		for r := 0; r <= 2; r++ {
			n, err := ln.Node(Config{Rank: core.NodeID(r), Protocol: pcfg, HelloInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		done := false
		nodes[0].startSend(loopPattern(5000), func(error) { done = true })
		runUntil(ln, &done)
		if !done {
			t.Fatal("transfer did not complete")
		}
		check(t, nodes[1], nodes[2])
		for _, n := range nodes {
			n.Close()
		}
	})
	t.Run("udp", func(t *testing.T) {
		multicastAvailable(t)
		pcfg := core.Config{Protocol: core.ProtoACK, NumReceivers: 1, PacketSize: 1000, WindowSize: 4}
		sender, receivers := liveSession(t, pcfg)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sender.Send(ctx, livePattern(5000)); err != nil {
			t.Fatal(err)
		}
		if _, err := receivers[0].Recv(ctx); err != nil {
			t.Fatal(err)
		}
		check(t, receivers[0], nil) // Close has stopped the loop: the test owns the node now
	})
}

// topLoopStock reports the stock RunLoopScenario handed back last: how
// many delivery records and frame copies it has made, and its first
// record, which names it.
func topLoopStock(t *testing.T) (dgs, frames int, first *loopDatagram) {
	t.Helper()
	loopStocks.mu.Lock()
	defer loopStocks.mu.Unlock()
	k := len(loopStocks.list) - 1
	if k < 0 || len(loopStocks.list[k].dgs) == 0 {
		t.Fatal("RunLoopScenario did not hand its delivery records back")
	}
	st := loopStocks.list[k]
	return len(st.dgs), len(st.frames), st.dgs[0]
}

// TestLoopbackWarmRunMakesNoDeliveryState: RunLoopScenario hands its
// net's delivery records and frame copies back, those still in flight
// at the end included, and an identical run after it takes that stock,
// makes no record or copy of its own, and produces the same digest. Not
// parallel: no other run may take the stock in between.
func TestLoopbackWarmRunMakesNoDeliveryState(t *testing.T) {
	sc := LoopScenario{
		Net: LoopConfig{Seed: 7, Delay: 100 * time.Microsecond,
			Jitter: 50 * time.Microsecond, LossRate: 0.03},
		Protocol: core.Config{Protocol: core.ProtoNAK, NumReceivers: 5,
			PacketSize: 1400, WindowSize: 16, PollInterval: 13},
		MsgSize: 120000,
	}
	run := func() string {
		res, err := RunLoopScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !res.SendDone || len(res.Delivered) != sc.Protocol.NumReceivers {
			t.Fatalf("transfer incomplete: done=%v delivered=%v", res.SendDone, res.Delivered)
		}
		return digestLoopResult(res)
	}
	cold := run()
	dgs, frames, first := topLoopStock(t)
	warm := run()
	dgs2, frames2, first2 := topLoopStock(t)
	if first2 != first {
		t.Fatal("the second run did not take and return the first one's stock")
	}
	if dgs2 != dgs || frames2 != frames {
		t.Errorf("the warm run made %d delivery records and %d frame copies the stock should have held",
			dgs2-dgs, frames2-frames)
	}
	if warm != cold {
		t.Fatalf("the warm run diverged from the cold one:\n  cold %s\n  warm %s", cold, warm)
	}
}

// TestLoopbackResultOutlivesNextRun: a result's trace is the caller's
// own. The run collects it in the net's stock, which the next run takes
// and overwrites, so a trace handed out without its copy would change
// under its caller. Not parallel: the second run must take the first
// one's stock.
func TestLoopbackResultOutlivesNextRun(t *testing.T) {
	lossy := LoopScenario{
		Net: LoopConfig{Seed: 11, Delay: 100 * time.Microsecond,
			Jitter: 50 * time.Microsecond, LossRate: 0.03},
		Protocol: core.Config{Protocol: core.ProtoNAK, NumReceivers: 5,
			PacketSize: 1400, WindowSize: 16, PollInterval: 13},
		MsgSize: 120000,
	}
	first, err := RunLoopScenario(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if first.SenderStats.Retransmissions == 0 {
		t.Fatal("the lossy scenario retransmitted nothing")
	}
	events := slices.Clone(first.Trace)
	deliveries := slices.Clone(first.Deliveries)
	digest := digestLoopResult(first)

	other := LoopScenario{
		Net: LoopConfig{Seed: 12, Delay: 100 * time.Microsecond, Jitter: 20 * time.Microsecond},
		Protocol: core.Config{Protocol: core.ProtoTree, NumReceivers: 6,
			PacketSize: 1000, WindowSize: 8, TreeHeight: 3},
		MsgSize: 200000,
	}
	second, err := RunLoopScenario(other)
	if err != nil {
		t.Fatal(err)
	}
	if n := min(len(events), len(second.Trace)); slices.Equal(events[:n], second.Trace[:n]) {
		t.Fatal("the second run's trace starts as the first one's: overwriting it would show nothing")
	}
	if !slices.Equal(first.Trace, events) {
		t.Error("the first result's trace changed during the next run")
	}
	if !slices.Equal(first.Deliveries, deliveries) {
		t.Error("the first result's deliveries changed during the next run")
	}
	if got := digestLoopResult(first); got != digest {
		t.Errorf("the first result's digest moved from %s to %s", digest, got)
	}
}

// TestLoopbackWarmRunTraceIsOneCopy: a warm run draws its trace
// scratch and message bytes from the stock, so apart from a fixed slack
// of per-run state (nodes, protocol machines, metrics, delivery
// records) the only bytes it allocates are the one exact-size copy of
// its trace. That slack measured 61–66 KiB for this scenario; a run that
// regrew its trace would allocate several trace copies more, one that
// made its message again 117 KiB more. Not parallel: other runs would
// take the stock and add their allocations.
func TestLoopbackWarmRunTraceIsOneCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const slack = 96 << 10
	sc := LoopScenario{
		Net: LoopConfig{Seed: 7, Delay: 100 * time.Microsecond,
			Jitter: 50 * time.Microsecond, LossRate: 0.03},
		Protocol: core.Config{Protocol: core.ProtoNAK, NumReceivers: 5,
			PacketSize: 1400, WindowSize: 16, PollInterval: 13},
		MsgSize: 120000,
	}
	run := func() (allocated uint64, events int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunLoopScenario(sc)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !res.SendDone || len(res.Delivered) != sc.Protocol.NumReceivers {
			t.Fatalf("transfer incomplete: done=%v delivered=%v", res.SendDone, res.Delivered)
		}
		return after.TotalAlloc - before.TotalAlloc, len(res.Trace)
	}
	run() // cold: grows the stock
	// The least of three warm runs: a stray goroutine left by an
	// earlier test must not count against the run.
	least, events := run()
	for i := 0; i < 2; i++ {
		if b, _ := run(); b < least {
			least = b
		}
	}
	copyBytes := uint64(events) * uint64(unsafe.Sizeof(trace.Event{}))
	if least > copyBytes+slack {
		t.Errorf("a warm run allocated %d bytes: %d over its %d-byte trace copy, want at most %d",
			least, least-copyBytes, copyBytes, slack)
	}
}

// TestLoopbackStockDropsScratchPastCap: a stock keeps its trace
// scratch and message bytes for the next run, emptied, but not once
// either grew past loopScratchCap. Not parallel: it reads the stock it
// just released.
func TestLoopbackStockDropsScratchPastCap(t *testing.T) {
	top := func() loopStock {
		loopStocks.mu.Lock()
		defer loopStocks.mu.Unlock()
		return loopStocks.list[len(loopStocks.list)-1]
	}
	eventSize := int(unsafe.Sizeof(trace.Event{}))

	ln := NewLoopNet(LoopConfig{})
	ln.events = append(make([]trace.Event, 0, 1024), trace.Event{Seq: 1})
	ln.msg = make([]byte, 4096)
	ln.release()
	if st := top(); len(st.events) != 0 || cap(st.events) != 1024 || cap(st.msg) != 4096 {
		t.Errorf("a stock under the cap kept %d events of %d capacity and %d message bytes, want 0, 1024 and 4096",
			len(st.events), cap(st.events), cap(st.msg))
	}

	ln = NewLoopNet(LoopConfig{})
	ln.events = make([]trace.Event, 0, loopScratchCap/eventSize+1)
	ln.msg = make([]byte, loopScratchCap+1)
	ln.release()
	if st := top(); st.events != nil || st.msg != nil {
		t.Errorf("a stock past the cap kept %d bytes of trace scratch and %d message bytes",
			cap(st.events)*eventSize, cap(st.msg))
	}
}

// TestLoopbackConcurrentRunsMatchSerial: loopback runs on several
// goroutines at once pass simulators and stocks between them through
// the process-wide free lists; each run must still produce exactly the
// digest it produces alone. Run it under -race.
func TestLoopbackConcurrentRunsMatchSerial(t *testing.T) {
	lossy := LoopConfig{Seed: 2, Delay: 100 * time.Microsecond,
		Jitter: 50 * time.Microsecond, LossRate: 0.03}
	scenarios := []LoopScenario{
		{Net: LoopConfig{Seed: 1, Delay: 100 * time.Microsecond, Jitter: 20 * time.Microsecond},
			Protocol: core.Config{Protocol: core.ProtoACK, NumReceivers: 4, PacketSize: 1400, WindowSize: 8},
			MsgSize:  60000},
		{Net: lossy,
			Protocol: core.Config{Protocol: core.ProtoNAK, NumReceivers: 5, PacketSize: 1400, WindowSize: 16, PollInterval: 13},
			MsgSize:  80000},
		{Net: lossy,
			Protocol: core.Config{Protocol: core.ProtoRing, NumReceivers: 5, PacketSize: 1400, WindowSize: 8},
			MsgSize:  50000},
		{Net: lossy,
			Protocol: core.Config{Protocol: core.ProtoTree, NumReceivers: 6, PacketSize: 1400, WindowSize: 8, TreeHeight: 3},
			MsgSize:  50000},
	}
	digest := func(sc LoopScenario) (string, error) {
		res, err := RunLoopScenario(sc)
		if err != nil {
			return "", err
		}
		if !res.SendDone || res.SendErr != nil {
			return "", fmt.Errorf("%v: done=%v err=%v", sc.Protocol.Protocol, res.SendDone, res.SendErr)
		}
		return digestLoopResult(res), nil
	}
	want := make([]string, len(scenarios))
	for i, sc := range scenarios {
		d, err := digest(sc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	const workers, rounds = 4, 3
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(scenarios)
				got, err := digest(scenarios[i])
				if err == nil && got != want[i] {
					err = fmt.Errorf("worker %d round %d: %v digest %s, serial %s",
						w, r, scenarios[i].Protocol.Protocol, got, want[i])
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
