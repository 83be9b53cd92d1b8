package core

import (
	"bytes"
	"testing"
	"time"

	"rmcast/internal/packet"
)

func TestRateControlNormalize(t *testing.T) {
	nak := baseConfig(ProtoNAK, 4) // WindowSize 8, PollInterval 6

	t.Run("zero-value-disabled", func(t *testing.T) {
		r, err := RateControl{}.normalize(nak)
		if err != nil || r != (RateControl{}) {
			t.Fatalf("zero value should pass through: %+v, %v", r, err)
		}
	})
	t.Run("fields-without-enabled", func(t *testing.T) {
		if _, err := (RateControl{MaxWindow: 4}).normalize(nak); err == nil {
			t.Fatal("MaxWindow without Enabled accepted")
		}
		if _, err := (RateControl{LeaderPacing: true}).normalize(nak); err == nil {
			t.Fatal("LeaderPacing without Enabled accepted")
		}
	})
	t.Run("rawudp-rejected", func(t *testing.T) {
		raw := baseConfig(ProtoRawUDP, 4)
		if _, err := (RateControl{Enabled: true}).normalize(raw); err == nil {
			t.Fatal("rate control over rawudp accepted")
		}
	})
	t.Run("defaults", func(t *testing.T) {
		r, err := RateControl{Enabled: true}.normalize(nak)
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxWindow != nak.WindowSize {
			t.Errorf("MaxWindow default %d, want WindowSize %d", r.MaxWindow, nak.WindowSize)
		}
		if r.MinWindow != nak.PollInterval {
			t.Errorf("MinWindow default %d, want PollInterval %d (NAK floor)", r.MinWindow, nak.PollInterval)
		}
		if r.Increase != 1 || r.Beta != 0.5 {
			t.Errorf("Increase/Beta defaults %v/%v, want 1/0.5", r.Increase, r.Beta)
		}
		// Idempotent: normalizing the normalized block changes nothing.
		again, err := r.normalize(nak)
		if err != nil || again != r {
			t.Errorf("normalize not idempotent: %+v vs %+v (%v)", again, r, err)
		}
	})
	t.Run("protocol-floors", func(t *testing.T) {
		ack := baseConfig(ProtoACK, 4)
		r, err := RateControl{Enabled: true}.normalize(ack)
		if err != nil || r.MinWindow != 1 {
			t.Errorf("ACK floor: MinWindow %d (%v), want 1", r.MinWindow, err)
		}
		ring := baseConfig(ProtoRing, 4) // WindowSize n+8
		r, err = RateControl{Enabled: true}.normalize(ring)
		if want := ring.RingSpan() + 1; err != nil || r.MinWindow != want {
			t.Errorf("ring floor: MinWindow %d (%v), want span+1 = %d", r.MinWindow, err, want)
		}
	})
	t.Run("bounds", func(t *testing.T) {
		bad := []RateControl{
			{Enabled: true, MaxWindow: nak.WindowSize + 1}, // beyond receiver buffers
			{Enabled: true, MaxWindow: -1},
			{Enabled: true, MaxWindow: 4},               // below the NAK floor (PollInterval 6)
			{Enabled: true, MinWindow: 2},               // below the NAK floor
			{Enabled: true, MinWindow: 8, MaxWindow: 7}, // min > max
			{Enabled: true, Beta: 1},                    // Beta must be in (0,1)
			{Enabled: true, Beta: -0.5},
			{Enabled: true, Increase: -1},
		}
		for i, rc := range bad {
			if _, err := rc.normalize(nak); err == nil {
				t.Errorf("case %d (%+v) accepted", i, rc)
			}
		}
	})
}

func TestRateStateAIMD(t *testing.T) {
	rc := newRateState(RateControl{Enabled: true, MinWindow: 2, MaxWindow: 32, Increase: 1, Beta: 0.5})
	if rc.Window() != 32 {
		t.Fatalf("initial window %d, want the ceiling 32", rc.Window())
	}
	// At the ceiling, acknowledgments bank no credit.
	rc.OnAdvance(100)
	if rc.Window() != 32 || rc.credit != 0 {
		t.Fatalf("ceiling advance changed state: cwnd %v credit %v", rc.cwnd, rc.credit)
	}
	// One loss round halves.
	rc.OnLoss(10, 20)
	if rc.Window() != 16 || rc.recoverUntil != 20 {
		t.Fatalf("after loss: window %d recoverUntil %d, want 16/20", rc.Window(), rc.recoverUntil)
	}
	// A second loss inside the same round (base below the horizon) is
	// the same congestion event: no further decrease.
	rc.OnLoss(15, 25)
	if rc.Window() != 16 {
		t.Fatalf("same-round loss decreased again: window %d", rc.Window())
	}
	// A loss in the next round decreases once more.
	rc.OnLoss(20, 30)
	if rc.Window() != 8 {
		t.Fatalf("next-round loss: window %d, want 8", rc.Window())
	}
	// Repeated rounds clamp at the floor.
	rc.OnLoss(30, 40)
	rc.OnLoss(40, 50)
	rc.OnLoss(50, 60)
	if rc.Window() != 2 {
		t.Fatalf("floor clamp: window %d, want 2", rc.Window())
	}
	// Additive increase: one increment per full cwnd of progress.
	rc.OnAdvance(1)
	if rc.Window() != 2 {
		t.Fatalf("half a window of credit already increased: %d", rc.Window())
	}
	rc.OnAdvance(1)
	if rc.Window() != 3 || rc.credit != 0 {
		t.Fatalf("one full window of credit: window %d credit %v, want 3/0", rc.Window(), rc.credit)
	}
	// A large advance applies successive increments, each costing the
	// then-current window: 7 credits from cwnd 3 buy 3→4 (3) and 4→5 (4).
	rc.OnAdvance(7)
	if rc.Window() != 5 || rc.credit != 0 {
		t.Fatalf("bulk advance: window %d credit %v, want 5/0", rc.Window(), rc.credit)
	}
	// Growth clamps back at the ceiling and drops leftover credit.
	rc.OnAdvance(1000)
	if rc.Window() != 32 || rc.credit != 0 {
		t.Fatalf("recovery: window %d credit %v, want 32/0", rc.Window(), rc.credit)
	}
}

func TestRatePaceGap(t *testing.T) {
	off := newRateState(RateControl{Enabled: true, MinWindow: 1, MaxWindow: 10, Increase: 1, Beta: 0.5})
	if g := off.PaceGap(10 * time.Millisecond); g != 0 {
		t.Fatalf("pacing disabled but gap %v", g)
	}
	on := newRateState(RateControl{Enabled: true, MinWindow: 1, MaxWindow: 10, Increase: 1, Beta: 0.5, LeaderPacing: true})
	if g := on.PaceGap(0); g != 0 {
		t.Fatalf("no round-trip sample but gap %v", g)
	}
	if g, want := on.PaceGap(10*time.Millisecond), time.Millisecond; g != want {
		t.Fatalf("gap %v, want SRTT/cwnd = %v", g, want)
	}
	on.OnLoss(0, 1) // cwnd 10 → 5
	if g, want := on.PaceGap(10*time.Millisecond), 2*time.Millisecond; g != want {
		t.Fatalf("gap after decrease %v, want %v", g, want)
	}
}

// TestKarnSampling pins the Karn rule on the live sender: retransmitting
// the sampled packet invalidates the pending round-trip sample, while
// retransmitting any other packet leaves it armed.
func TestKarnSampling(t *testing.T) {
	cfg := baseConfig(ProtoACK, 2)
	cfg.Rate = RateControl{Enabled: true} // sampling without AdaptiveRTO
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := ses.sender
	ses.net.s.After(0, func() { s.Start(pattern(30000)) })
	for ses.net.s.Pending() > 0 && s.phase != phaseData {
		ses.net.s.Step()
	}
	if s.phase != phaseData {
		t.Fatal("never reached the data phase")
	}
	if s.rto != nil {
		t.Fatal("rate control alone must not adopt the adaptive RTO timer policy")
	}
	if s.est == nil {
		t.Fatal("rate control did not wire the round-trip estimator")
	}
	if !s.sampleLive || s.sampleSeq != 0 {
		t.Fatalf("first data send should arm the sample on seq 0: live=%v seq=%d", s.sampleLive, s.sampleSeq)
	}
	// Retransmitting a different packet keeps the sample armed.
	s.sendData(3, true)
	if !s.sampleLive {
		t.Fatal("retransmission of an unsampled packet dropped the sample")
	}
	// Retransmitting the sampled packet makes its acknowledgment
	// ambiguous: the sample dies.
	s.sendData(0, true)
	if s.sampleLive {
		t.Fatal("Karn violation: sample survived retransmission of the sampled packet")
	}
	// The session still completes, and clean samples from later packets
	// (or the allocation handshake) feed the estimator.
	for ses.net.s.Pending() > 0 && !ses.senderOK {
		ses.net.s.Step()
	}
	if !ses.senderOK {
		t.Fatal("session did not complete")
	}
	if !s.est.HasSample() {
		t.Fatal("no clean round-trip sample was ever recorded")
	}
}

// TestLeaderSelection exercises worst-receiver tracking: the leader is
// the lowest rank holding the minimum cumulative acknowledgment.
func TestLeaderSelection(t *testing.T) {
	ses, err := newSession(baseConfig(ProtoACK, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := ses.sender
	if s.Leader() != 0 {
		t.Fatalf("idle sender has a leader: %d", s.Leader())
	}
	ses.net.s.After(0, func() { s.Start(pattern(30000)) })
	for ses.net.s.Pending() > 0 && s.phase != phaseData {
		ses.net.s.Step()
	}
	// All receivers sit at 0: the tie breaks to the lowest rank.
	if got := s.Leader(); got != 1 {
		t.Fatalf("all-equal leader %d, want 1", got)
	}
	// Receiver 1 pulls ahead; 2 and 3 still hold the minimum.
	inject(s, 1, &packet.Packet{Type: packet.TypeAck, MsgID: 1, Seq: 3})
	if got := s.Leader(); got != 2 {
		t.Fatalf("leader %d, want 2", got)
	}
	// Receiver 3 advances too; 2 is now the unique straggler.
	inject(s, 3, &packet.Packet{Type: packet.TypeAck, MsgID: 1, Seq: 2})
	inject(s, 2, &packet.Packet{Type: packet.TypeAck, MsgID: 1, Seq: 1})
	if got := s.Leader(); got != 2 {
		t.Fatalf("leader %d, want the slowest receiver 2", got)
	}
	// Everyone levels at 3: back to the lowest-rank tie-break.
	inject(s, 2, &packet.Packet{Type: packet.TypeAck, MsgID: 1, Seq: 3})
	inject(s, 3, &packet.Packet{Type: packet.TypeAck, MsgID: 1, Seq: 3})
	if got := s.Leader(); got != 1 {
		t.Fatalf("re-leveled leader %d, want 1", got)
	}
	for ses.net.s.Pending() > 0 && !ses.senderOK {
		ses.net.s.Step()
	}
	if !ses.senderOK {
		t.Fatal("session did not complete after probe injections")
	}
}

// TestRateControlledLossyTransfer runs the full AIMD + leader-pacing
// path over a lossy mock fabric: the transfer completes intact and the
// effective window stays within the configured bounds.
func TestRateControlledLossyTransfer(t *testing.T) {
	cfg := baseConfig(ProtoNAK, 4)
	cfg.Rate = RateControl{Enabled: true, LeaderPacing: true}
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ses.net.drop = lossyDrop(0.02, 42)
	msg := pattern(60000)
	if !ses.run(msg, time.Minute) {
		t.Fatal("rate-controlled lossy session did not complete")
	}
	for r := 1; r <= cfg.NumReceivers; r++ {
		if !bytes.Equal(ses.delivered[r], msg) {
			t.Fatalf("receiver %d delivery corrupted", r)
		}
	}
	s := ses.sender
	w := s.RateWindow()
	if w < s.cfg.Rate.MinWindow || w > s.cfg.Rate.MaxWindow {
		t.Fatalf("rate window %d outside [%d,%d]", w, s.cfg.Rate.MinWindow, s.cfg.Rate.MaxWindow)
	}
	if ses.net.dropped == 0 {
		t.Fatal("loss injection never fired; the test proved nothing")
	}
}

// TestSessionTagSeedsMsgID pins the session-tagging contract: tag s
// numbers messages from s<<16 + 1, tag 0 preserves the legacy 1, 2, ...
// numbering, and oversized tags are rejected outright.
func TestSessionTagSeedsMsgID(t *testing.T) {
	cfg := baseConfig(ProtoACK, 2)
	cfg.SessionTag = 3
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	msg := pattern(4000)
	if !ses.run(msg, 10*time.Second) {
		t.Fatal("tagged session did not complete")
	}
	if got := ses.sender.msgID; got != 3<<16+1 {
		t.Fatalf("msgID %#x, want %#x", got, 3<<16+1)
	}
	if !bytes.Equal(ses.delivered[1], msg) || !bytes.Equal(ses.delivered[2], msg) {
		t.Fatal("tagged delivery corrupted")
	}

	cfg = baseConfig(ProtoACK, 2)
	cfg.SessionTag = 0x10000
	if _, err := newSession(cfg); err == nil {
		t.Fatal("17-bit session tag accepted")
	}
}
