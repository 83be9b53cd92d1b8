package live

import (
	"testing"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/packet"
)

// timerCfg is the timer tests' session: one NAK receiver.
var timerCfg = core.Config{Protocol: core.ProtoNAK, NumReceivers: 1, PacketSize: 1000, WindowSize: 8, PollInterval: 4}

// loopPair attaches a sender and one receiver to a fresh loopback net.
func loopPair(t *testing.T) (*LoopNet, []*Node) {
	t.Helper()
	ln := NewLoopNet(LoopConfig{Seed: 3})
	var nodes []*Node
	for r := 0; r <= timerCfg.NumReceivers; r++ {
		n, err := ln.Node(Config{Rank: core.NodeID(r), Protocol: timerCfg, HelloInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	return ln, nodes
}

// runningNode starts a UDP-mode node's event loop on a transport that
// discards every send: its timers run against the wall clock, exactly
// as on a socket-bound node.
func runningNode(t *testing.T) *Node {
	t.Helper()
	n := detachedNode(t, timerCfg, 1)
	n.wg.Add(1)
	go n.runLoop()
	t.Cleanup(func() { n.Close() })
	return n
}

// onLoop runs fn on n's event loop and waits for it.
func onLoop(n *Node, fn func()) {
	done := make(chan struct{})
	n.post(func() { fn(); close(done) })
	<-done
}

// TestTimerCancelNeverFires: a cancelled timer's fn never runs, on a
// driven node and on a UDP node, and cancelling the ID of a timer that
// has already fired is a no-op — it does not reach a later timer that
// reuses the fired one's queue slot.
func TestTimerCancelNeverFires(t *testing.T) {
	t.Run("driven", func(t *testing.T) {
		ln, nodes := loopPair(t)
		env := nodes[1].env()
		var cancelled, fired, later bool
		id := env.SetTimer(2*time.Millisecond, func() { cancelled = true })
		firedID := env.SetTimer(time.Millisecond, func() { fired = true })
		env.CancelTimer(id)
		ln.Run(5 * time.Millisecond)
		if cancelled || !fired {
			t.Fatalf("cancelled timer ran: %v; live timer ran: %v", cancelled, fired)
		}
		env.SetTimer(time.Millisecond, func() { later = true })
		env.CancelTimer(firedID)
		env.CancelTimer(id)
		ln.Run(10 * time.Millisecond)
		if !later {
			t.Fatal("cancelling fired or cancelled timers stopped a later one")
		}
	})
	t.Run("udp", func(t *testing.T) {
		n := runningNode(t)
		env := n.env()
		cancelled := make(chan struct{})
		fired := make(chan struct{})
		later := make(chan struct{})
		var id, firedID core.TimerID
		onLoop(n, func() {
			id = env.SetTimer(2*time.Millisecond, func() { close(cancelled) })
			firedID = env.SetTimer(time.Millisecond, func() { close(fired) })
			env.CancelTimer(id)
		})
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("live timer never ran")
		}
		onLoop(n, func() {
			env.SetTimer(5*time.Millisecond, func() { close(later) })
			env.CancelTimer(firedID)
			env.CancelTimer(id)
		})
		select {
		case <-later:
		case <-time.After(5 * time.Second):
			t.Fatal("cancelling fired or cancelled timers stopped a later one")
		}
		select {
		case <-cancelled:
			t.Fatal("cancelled timer ran")
		default:
		}
	})
}

// TestClosedNodeTimersDoNotRun: closing a driven node with timers armed
// silences it for good — while the network keeps running, none of its
// timers fire and it sends no further hello.
func TestClosedNodeTimersDoNotRun(t *testing.T) {
	ln, nodes := loopPair(t)
	ln.Run(25 * time.Millisecond) // discovery and a few hello ticks
	victim := nodes[1]
	hellos := func() uint64 { return victim.Metrics().Sent[packet.TypeHello.String()] }
	if hellos() == 0 {
		t.Fatal("the node sent no hello before Close; the test is not exercising the hello tick")
	}
	env := victim.env()
	ran := 0
	for i := 1; i <= 5; i++ {
		env.SetTimer(time.Duration(i)*time.Millisecond, func() { ran++ })
	}
	before := hellos()
	victim.Close()
	ln.Run(ln.Now() + 100*time.Millisecond)
	if ran != 0 {
		t.Errorf("%d timers of a closed node ran", ran)
	}
	if got := hellos(); got != before {
		t.Errorf("a closed node sent %d more hellos", got-before)
	}
	if nodes[0].Metrics().Sent[packet.TypeHello.String()] == 0 {
		t.Fatal("the surviving node sent no hello; the network did not run")
	}
}

// TestLiveTimerArmZeroAllocs: arming a timer with a prebuilt fn and
// cancelling it allocates nothing once the queue is warm, on a driven
// node and on a UDP-mode node.
func TestLiveTimerArmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	_, nodes := loopPair(t)
	for name, n := range map[string]*Node{"driven": nodes[1], "udp": detachedNode(t, timerCfg, 1)} {
		env := n.env()
		fn := func() {}
		cycle := func() { env.CancelTimer(env.SetTimer(time.Millisecond, fn)) }
		// Cancelled entries wait for compaction, so the queue's storage
		// grows over the first cycles; let it reach its high-water mark.
		for i := 0; i < 1000; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%s: SetTimer+CancelTimer allocates %.1f objects, want 0", name, allocs)
		}
	}
}
