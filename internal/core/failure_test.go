package core

import (
	"bytes"
	"testing"
	"time"

	"rmcast/internal/packet"
)

// failureConfig returns a small, fast-detecting config for failure unit
// tests: 50 packets, an 8-packet window, and a detection horizon of a
// few tens of milliseconds.
func failureConfig(p Protocol, n int) Config {
	cfg := Config{
		Protocol:       p,
		NumReceivers:   n,
		PacketSize:     100,
		WindowSize:     8,
		RetransTimeout: 5 * time.Millisecond,
		AllocTimeout:   time.Millisecond,
		MaxRetries:     2,
	}
	switch p {
	case ProtoNAK:
		cfg.PollInterval = 5
	case ProtoRing:
		cfg.WindowSize = n + 8
	case ProtoTree:
		cfg.TreeHeight = n // one chain through every receiver
	}
	return cfg
}

// crash returns a drop function that silences rank completely — the
// unit-level equivalent of the cluster's crashed fault gate.
func crash(rank NodeID) func(NodeID, NodeID, *packet.Packet) bool {
	return func(from, to NodeID, _ *packet.Packet) bool {
		return from == rank || to == rank
	}
}

func TestSenderEjectsSilentReceiver(t *testing.T) {
	for _, p := range []Protocol{ProtoACK, ProtoNAK, ProtoRing, ProtoTree} {
		t.Run(p.String(), func(t *testing.T) {
			ses, err := newSession(failureConfig(p, 4))
			if err != nil {
				t.Fatal(err)
			}
			ses.net.drop = crash(2)
			msg := pattern(5000)
			if !ses.run(msg, 10*time.Second) {
				t.Fatal("sender did not terminate")
			}
			failed := ses.sender.Failed()
			if len(failed) != 1 || failed[0] != 2 {
				t.Fatalf("Failed = %v, want [2]", failed)
			}
			for r := 1; r <= 4; r++ {
				if r == 2 {
					continue
				}
				if !bytes.Equal(ses.delivered[r], msg) {
					t.Errorf("survivor %d did not deliver (%d bytes)", r, len(ses.delivered[r]))
				}
			}
			if st := ses.sender.Stats(); st.Ejected != 1 || st.ProbesSent == 0 {
				t.Errorf("stats = %+v, want 1 ejection after probing", st)
			}
		})
	}
}

// TestPongRepairsLostAcks drops every acknowledgment from one receiver
// but leaves the probe channel intact: the receiver must be probed, not
// ejected — each pong carries its cumulative progress and substitutes
// for the lost acks, so the transfer completes with full membership.
func TestPongRepairsLostAcks(t *testing.T) {
	ses, err := newSession(failureConfig(ProtoACK, 3))
	if err != nil {
		t.Fatal(err)
	}
	ses.net.drop = func(from, to NodeID, p *packet.Packet) bool {
		return from == 2 && p.Type == packet.TypeAck
	}
	msg := pattern(5000)
	if !ses.run(msg, 10*time.Second) {
		t.Fatal("sender did not terminate")
	}
	if failed := ses.sender.Failed(); len(failed) != 0 {
		t.Fatalf("slow-but-alive receiver was ejected: %v", failed)
	}
	for r := 1; r <= 3; r++ {
		if !bytes.Equal(ses.delivered[r], msg) {
			t.Errorf("receiver %d did not deliver", r)
		}
	}
	if st := ses.sender.Stats(); st.ProbesSent == 0 {
		t.Error("transfer completed without probing — the ack drop was not exercised")
	}
}

// TestTreeChainSplice kills a mid-chain receiver of a single
// four-receiver chain: the sender can only see the head's aggregate
// stall, must widen suspicion to the whole chain, eject exactly the
// dead member, and the survivors must splice (1 adopts 3) and finish.
func TestTreeChainSplice(t *testing.T) {
	ses, err := newSession(failureConfig(ProtoTree, 4))
	if err != nil {
		t.Fatal(err)
	}
	ses.net.drop = crash(3)
	msg := pattern(5000)
	if !ses.run(msg, 10*time.Second) {
		t.Fatal("sender did not terminate")
	}
	if failed := ses.sender.Failed(); len(failed) != 1 || failed[0] != 3 {
		t.Fatalf("Failed = %v, want [3]", failed)
	}
	for _, r := range []int{1, 2, 4} {
		if !bytes.Equal(ses.delivered[r], msg) {
			t.Errorf("survivor %d did not deliver", r)
		}
	}
}

// TestTreeLateCrashStillEjected kills a mid-chain receiver near the end
// of the transfer, when the chain head already holds the full message.
// The head answers the probe — its pong must carry the chain aggregate,
// not its own (complete) progress, or the pong would satisfy the
// sender's acknowledgment minimum and finish the session before the
// probe rounds can eject the dead member.
func TestTreeLateCrashStillEjected(t *testing.T) {
	ses, err := newSession(failureConfig(ProtoTree, 4)) // one chain 1-2-3-4
	if err != nil {
		t.Fatal(err)
	}
	crashed := false
	ses.net.drop = func(from, to NodeID, p *packet.Packet) bool {
		if p.Type == packet.TypeData && p.Seq >= 49 {
			crashed = true
		}
		return crashed && (from == 3 || to == 3)
	}
	msg := pattern(5000) // 50 packets: rank 3 dies missing only the last
	if !ses.run(msg, 10*time.Second) {
		t.Fatal("sender did not terminate")
	}
	if failed := ses.sender.Failed(); len(failed) != 1 || failed[0] != 3 {
		t.Fatalf("Failed = %v, want [3]", failed)
	}
	for _, r := range []int{1, 2, 4} {
		if !bytes.Equal(ses.delivered[r], msg) {
			t.Errorf("survivor %d did not deliver", r)
		}
	}
	if st := ses.sender.Stats(); st.Ejected != 1 {
		t.Errorf("Ejected = %d, want 1", st.Ejected)
	}
}

// TestTreeHeadReplacement kills a chain head: the next member inherits
// the acknowledgment stream and the sender finishes against it.
func TestTreeHeadReplacement(t *testing.T) {
	cfg := failureConfig(ProtoTree, 4)
	cfg.TreeHeight = 2 // chains 1-3 and 2-4
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ses.net.drop = crash(1)
	msg := pattern(5000)
	if !ses.run(msg, 10*time.Second) {
		t.Fatal("sender did not terminate")
	}
	if failed := ses.sender.Failed(); len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("Failed = %v, want [1]", failed)
	}
	for _, r := range []int{2, 3, 4} {
		if !bytes.Equal(ses.delivered[r], msg) {
			t.Errorf("survivor %d did not deliver", r)
		}
	}
}

// TestSessionDeadlineFailsStragglers runs with detection off: the
// deadline must terminate the wedged session, fail exactly the silent
// receiver (the survivors are provably complete — the message fits in
// one window, so the dead receiver's silence never blocks them), and
// keep everyone else delivered.
func TestSessionDeadlineFailsStragglers(t *testing.T) {
	cfg := failureConfig(ProtoACK, 3)
	cfg.MaxRetries = 0
	cfg.SessionDeadline = 50 * time.Millisecond
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Let the allocation handshake through, then silence rank 2: a crash
	// from t=0 would wedge the session in the alloc phase, where nobody
	// is provably complete and the deadline rightly fails everyone.
	ses.net.drop = func(from, to NodeID, p *packet.Packet) bool {
		if p.Type == packet.TypeAllocReq || p.Type == packet.TypeAllocOK {
			return false
		}
		return from == 2 || to == 2
	}
	msg := pattern(500) // 5 packets < window 8: survivors complete despite the wedge
	if !ses.run(msg, 10*time.Second) {
		t.Fatal("sender did not terminate at its deadline")
	}
	if ses.doneAt < 50*time.Millisecond {
		t.Fatalf("finished at %v, before the deadline", ses.doneAt)
	}
	if failed := ses.sender.Failed(); len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("Failed = %v, want [2]", failed)
	}
	for _, r := range []int{1, 3} {
		if !bytes.Equal(ses.delivered[r], msg) {
			t.Errorf("survivor %d did not deliver", r)
		}
	}
}

// TestMaxRetriesZeroWaitsForever pins the paper's seed behavior: with
// detection off and no deadline, a dead receiver wedges the sender.
func TestMaxRetriesZeroWaitsForever(t *testing.T) {
	cfg := failureConfig(ProtoACK, 3)
	cfg.MaxRetries = 0
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ses.net.drop = crash(2)
	if ses.run(pattern(5000), 2*time.Second) {
		t.Fatal("sender finished despite a dead receiver and no failure detection")
	}
	if failed := ses.sender.Failed(); len(failed) != 0 {
		t.Fatalf("no detection configured, yet Failed = %v", failed)
	}
}

// TestEjectedReceiverGoesQuiet: after being ejected a receiver must not
// send protocol traffic (its acks would corrupt the spliced structures)
// but still deliver what it can.
func TestEjectedReceiverGoesQuiet(t *testing.T) {
	ses, err := newSession(failureConfig(ProtoACK, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Drop only traffic FROM rank 2 (its acks and pongs) so it still
	// hears everything, including its own ejection.
	ses.net.drop = func(from, _ NodeID, _ *packet.Packet) bool { return from == 2 }
	msg := pattern(5000)
	if !ses.run(msg, 10*time.Second) {
		t.Fatal("sender did not terminate")
	}
	if failed := ses.sender.Failed(); len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("Failed = %v, want [2]", failed)
	}
	if !ses.receivers[1].Ejected() {
		t.Error("rank 2 never processed its ejection")
	}
	// A mute receiver still assembles the data it hears.
	if !bytes.Equal(ses.delivered[2], msg) {
		t.Error("ejected receiver heard every packet yet did not assemble the message")
	}
}

// TestTreeRepairsLostDeparture loses the one multicast copy of a
// mid-chain departure — rank 3 crashes and is ejected, or leaves
// gracefully with failure detection off — on its way to rank 2, its
// predecessor. Rank 2 keeps waiting on the departed successor's
// aggregate, so the sender must re-announce the departure to the
// stalled chain; rank 2 then adopts rank 4 and the session completes.
func TestTreeRepairsLostDeparture(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind packet.Type
	}{
		{"eject", packet.TypeEject},
		{"leave", packet.TypeLeft},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := failureConfig(ProtoTree, 4)
			if tc.kind == packet.TypeLeft {
				cfg.MaxRetries = 0
			}
			ses, err := newSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lost := false
			ses.net.drop = func(from, to NodeID, p *packet.Packet) bool {
				if to == 2 && p.Type == tc.kind && !lost {
					lost = true
					return true
				}
				return tc.kind == packet.TypeEject && crash(3)(from, to, p)
			}
			if tc.kind == packet.TypeLeft {
				ses.net.s.After(time.Millisecond, func() { ses.receivers[2].Leave() })
			}
			msg := pattern(5000)
			if !ses.run(msg, 10*time.Second) {
				t.Fatal("sender did not terminate: the chain stalled behind the lost departure")
			}
			if !lost {
				t.Fatal("no departure was announced")
			}
			gone := ses.sender.Failed()
			if tc.kind == packet.TypeLeft {
				gone = ses.sender.Left()
			}
			if len(gone) != 1 || gone[0] != 3 {
				t.Fatalf("departed = %v, want [3]", gone)
			}
			for _, r := range []int{1, 2, 4} {
				if !bytes.Equal(ses.delivered[r], msg) {
					t.Errorf("survivor %d did not deliver", r)
				}
			}
		})
	}
}
