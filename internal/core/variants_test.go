package core

import (
	"bytes"
	"testing"
	"time"

	"rmcast/internal/packet"
)

// Tests for the protocol variants: selective repeat, receiver-side NAK
// suppression, and rate pacing.

func TestSelectiveRepeatDeliversUnderLoss(t *testing.T) {
	for _, proto := range reliableProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := baseConfig(proto, 5)
			cfg.ARQ = ARQSelective
			ses, err := newSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ses.net.drop = lossyDrop(0.08, 0xABC0+uint64(proto))
			msg := pattern(30000)
			if !ses.run(msg, 5*time.Minute) {
				t.Fatal("did not complete under loss")
			}
			for r := 1; r <= 5; r++ {
				if !bytes.Equal(ses.delivered[r], msg) {
					t.Fatalf("receiver %d corrupted", r)
				}
			}
		})
	}
}

func TestSelectiveRepeatResendsLessThanGoBackN(t *testing.T) {
	// One deliberately dropped mid-window data packet: Go-Back-N
	// resends the whole outstanding window, selective repeat resends
	// one packet.
	run := func(arq ARQMode) uint64 {
		cfg := baseConfig(ProtoNAK, 4)
		cfg.ARQ = arq
		cfg.WindowSize = 8
		cfg.PollInterval = 6
		ses, err := newSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dropped := false
		ses.net.drop = func(_, to NodeID, p *packet.Packet) bool {
			if !dropped && p.Type == packet.TypeData && p.Seq == 3 && to == 2 {
				dropped = true
				return true
			}
			return false
		}
		if !ses.run(pattern(20*1000), time.Minute) {
			t.Fatal("did not complete")
		}
		return ses.sender.Stats().Retransmissions
	}
	gbn := run(ARQGoBackN)
	sr := run(ARQSelective)
	if sr >= gbn {
		t.Errorf("selective repeat resent %d packets, Go-Back-N %d — expected SR < GBN", sr, gbn)
	}
	if sr == 0 {
		t.Error("selective repeat resent nothing despite a dropped packet")
	}
}

func TestSelectiveRepeatBuffersOutOfOrder(t *testing.T) {
	// With SR, a single early loss must not force re-delivery of the
	// later packets: receivers keep them. Measured as: the receiver's
	// duplicate count stays low because the sender resends only the gap.
	cfg := baseConfig(ProtoACK, 3)
	cfg.ARQ = ARQSelective
	cfg.WindowSize = 10
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dropped := false
	ses.net.drop = func(_, to NodeID, p *packet.Packet) bool {
		if !dropped && p.Type == packet.TypeData && p.Seq == 1 && to == 1 {
			dropped = true
			return true
		}
		return false
	}
	msg := pattern(15 * 1000)
	if !ses.run(msg, time.Minute) {
		t.Fatal("did not complete")
	}
	if !bytes.Equal(ses.delivered[1], msg) {
		t.Fatal("receiver 1 corrupted")
	}
	st := ses.receivers[0].Stats()
	if st.Gaps == 0 {
		t.Error("no gap recorded despite the drop")
	}
	// The one resent packet is the only extra the receiver should see.
	if st.Duplicates > 2 {
		t.Errorf("receiver saw %d duplicates; selective repeat should avoid re-delivery", st.Duplicates)
	}
}

func TestNakSuppressionReducesNaks(t *testing.T) {
	// Drop one multicast data packet toward EVERY receiver (a shared
	// loss, e.g. at the sender's switch port). Without suppression each
	// receiver NAKs; with the multicast scheme, overhearing receivers
	// hold theirs.
	run := func(suppress bool) (totalNaks, throttled uint64) {
		cfg := baseConfig(ProtoNAK, 6)
		cfg.NakSuppression = suppress
		cfg.WindowSize = 10
		cfg.PollInterval = 8
		cfg.NakInterval = 4 * time.Millisecond
		ses, err := newSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dropped := map[NodeID]bool{}
		ses.net.drop = func(_, to NodeID, p *packet.Packet) bool {
			if p.Type == packet.TypeData && p.Seq == 2 && !dropped[to] {
				dropped[to] = true
				return true
			}
			return false
		}
		if !ses.run(pattern(30*1000), time.Minute) {
			t.Fatal("did not complete")
		}
		for _, r := range ses.receivers {
			totalNaks += r.Stats().NaksSent
			throttled += r.Stats().NaksThrottled
		}
		return
	}
	plain, _ := run(false)
	suppressed, overheard := run(true)
	if suppressed >= plain {
		t.Errorf("suppression sent %d NAKs vs %d without — expected fewer", suppressed, plain)
	}
	if overheard == 0 {
		t.Error("no receiver reported suppressing its NAK after overhearing another")
	}
}

func TestNakSuppressionStillDelivers(t *testing.T) {
	cfg := baseConfig(ProtoNAK, 5)
	cfg.NakSuppression = true
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ses.net.drop = lossyDrop(0.05, 0x5E55)
	msg := pattern(40000)
	if !ses.run(msg, 5*time.Minute) {
		t.Fatal("did not complete")
	}
	for r := 1; r <= 5; r++ {
		if !bytes.Equal(ses.delivered[r], msg) {
			t.Fatalf("receiver %d corrupted", r)
		}
	}
}

func TestPacingSpacesTransmissions(t *testing.T) {
	// With a pace of 2 ms and 10 packets, the data phase must take at
	// least ~18 ms even though the window would allow an instant blast.
	cfg := baseConfig(ProtoACK, 2)
	cfg.WindowSize = 16
	cfg.PaceInterval = 2 * time.Millisecond
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ses.run(pattern(10*1000), time.Minute) {
		t.Fatal("did not complete")
	}
	if ses.doneAt < 18*time.Millisecond {
		t.Errorf("paced transfer finished in %v; pacing not applied", ses.doneAt)
	}
	// Without pacing the same transfer is far faster.
	cfg.PaceInterval = 0
	ses2, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ses2.run(pattern(10*1000), time.Minute) {
		t.Fatal("unpaced run did not complete")
	}
	if ses2.doneAt >= ses.doneAt {
		t.Errorf("unpaced (%v) not faster than paced (%v)", ses2.doneAt, ses.doneAt)
	}
}

func TestVariantsComposeWithSequentialMessages(t *testing.T) {
	cfg := baseConfig(ProtoNAK, 3)
	cfg.ARQ = ARQSelective
	cfg.NakSuppression = true
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		msg := pattern(12345 + round*100)
		ses.senderOK = false
		ses.net.s.After(0, func() { ses.sender.Start(msg) })
		for ses.net.s.Pending() > 0 && !ses.senderOK {
			ses.net.s.Step()
		}
		if !ses.senderOK {
			t.Fatalf("round %d did not complete", round)
		}
		for r := 1; r <= 3; r++ {
			if !bytes.Equal(ses.delivered[r], msg) {
				t.Fatalf("round %d receiver %d corrupted", round, r)
			}
		}
	}
}

func TestSelectiveRepeatEquivalentWhenErrorFree(t *testing.T) {
	// The paper's justification for Go-Back-N: with no losses the two
	// schemes behave identically. Verify identical packet counts.
	for _, proto := range reliableProtocols {
		cfgA := baseConfig(proto, 4)
		cfgB := cfgA
		cfgB.ARQ = ARQSelective
		sesA, _ := newSession(cfgA)
		sesB, _ := newSession(cfgB)
		msg := pattern(25000)
		if !sesA.run(msg, time.Minute) || !sesB.run(msg, time.Minute) {
			t.Fatalf("%v: runs did not complete", proto)
		}
		a, b := sesA.sender.Stats(), sesB.sender.Stats()
		if a.DataSent != b.DataSent || a.Retransmissions != 0 || b.Retransmissions != 0 {
			t.Errorf("%v: error-free GBN %+v vs SR %+v differ", proto, a, b)
		}
		if sesA.doneAt != sesB.doneAt {
			t.Errorf("%v: error-free times differ: %v vs %v", proto, sesA.doneAt, sesB.doneAt)
		}
	}
}

// Guard against accidental drift in the variants' interactions with the
// session machinery: a full sweep of sizes under combined variants.
func TestVariantsSizeSweep(t *testing.T) {
	for _, size := range []int{0, 1, 999, 5000, 50000} {
		cfg := baseConfig(ProtoRing, 4)
		cfg.ARQ = ARQSelective
		ses, err := newSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		msg := pattern(size)
		if !ses.run(msg, time.Minute) {
			t.Fatalf("size %d did not complete", size)
		}
		for r := 1; r <= 4; r++ {
			if !bytes.Equal(ses.delivered[r], msg) {
				t.Fatalf("size %d receiver %d corrupted", size, r)
			}
		}
	}
}
