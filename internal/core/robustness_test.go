package core

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"rmcast/internal/packet"
)

// Robustness tests: protocol endpoints must tolerate stale, duplicated,
// misaddressed and adversarial packets without panicking, corrupting
// delivery, or completing spuriously.

// inject delivers a raw packet to an endpoint directly.
func inject(ep Endpoint, from NodeID, p *packet.Packet) {
	ep.OnPacket(from, p)
}

func TestSenderIgnoresStaleAndBogusPackets(t *testing.T) {
	ses, err := newSession(baseConfig(ProtoACK, 3))
	if err != nil {
		t.Fatal(err)
	}
	ses.net.s.After(0, func() { ses.sender.Start(pattern(5000)) })
	ses.net.s.Step() // Start executes; msgID is now 1

	// Stale message id.
	inject(ses.sender, 1, &packet.Packet{Type: packet.TypeAck, MsgID: 99, Seq: 5})
	// Ack from an out-of-range node.
	inject(ses.sender, 77, &packet.Packet{Type: packet.TypeAllocOK, MsgID: 1})
	inject(ses.sender, -2, &packet.Packet{Type: packet.TypeAllocOK, MsgID: 1})
	// Data packets addressed to the sender (nonsensical).
	inject(ses.sender, 1, &packet.Packet{Type: packet.TypeData, MsgID: 1, Seq: 0})
	// Hello (live-transport discovery) reaching the FSM.
	inject(ses.sender, 1, &packet.Packet{Type: packet.TypeHello, MsgID: 1})

	if ses.sender.Done() {
		t.Fatal("bogus packets completed the transfer")
	}
	// The session must still complete normally afterwards.
	for ses.net.s.Pending() > 0 && !ses.senderOK {
		ses.net.s.Step()
	}
	if !ses.senderOK {
		t.Fatal("session did not complete after bogus injections")
	}
}

func TestSenderIgnoresAckBeyondSent(t *testing.T) {
	// A malicious/buggy receiver acking packets never sent must not
	// advance (or crash) the window. MinTracker only raises the min when
	// every receiver acks, so a single liar cannot complete the session.
	ses, err := newSession(baseConfig(ProtoACK, 3))
	if err != nil {
		t.Fatal(err)
	}
	ses.net.s.After(0, func() { ses.sender.Start(pattern(50000)) })
	ses.net.s.Step()
	inject(ses.sender, 2, &packet.Packet{Type: packet.TypeAck, MsgID: 1, Seq: 4_000_000})
	if ses.sender.Done() {
		t.Fatal("absurd ack completed the transfer")
	}
	for ses.net.s.Pending() > 0 && !ses.senderOK {
		ses.net.s.Step()
	}
	if !ses.senderOK {
		t.Fatal("session wedged after absurd ack")
	}
}

func TestReceiverIgnoresForeignData(t *testing.T) {
	ses, err := newSession(baseConfig(ProtoNAK, 2))
	if err != nil {
		t.Fatal(err)
	}
	rcv := ses.receivers[0]
	// Data before any allocation: dropped.
	inject(rcv, SenderID, &packet.Packet{Type: packet.TypeData, MsgID: 9, Seq: 0, Payload: []byte("x")})
	if rcv.Delivered() {
		t.Fatal("delivered without allocation")
	}
	// Oversized offset after a small allocation: dropped, no panic.
	inject(rcv, SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 7777, Aux: 10})
	inject(rcv, SenderID, &packet.Packet{Type: packet.TypeData, MsgID: 7777, Seq: 0, Aux: 1 << 20, Payload: []byte("overflow")})
	if rcv.Delivered() {
		t.Fatal("accepted a data packet pointing outside the buffer")
	}
	// A normal session still works afterwards.
	msg := pattern(4000)
	if !ses.run(msg, 10*time.Second) {
		t.Fatal("session did not complete after garbage")
	}
	if !bytes.Equal(ses.delivered[1], msg) {
		t.Fatal("delivery corrupted after garbage")
	}
}

func TestTreeReceiverIgnoresAcksFromNonSuccessor(t *testing.T) {
	cfg := baseConfig(ProtoTree, 6)
	cfg.TreeHeight = 3
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// numChains = 2: chain 0 is 1→3→5, chain 1 is 2→4→6.
	rcv := ses.receivers[0] // rank 1; successor is rank 3
	inject(rcv, SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 1, Aux: 8000})
	// Ack from rank 4 (not our successor) claiming everything: if the
	// receiver trusted it, it would propagate a bogus aggregate.
	inject(rcv, 4, &packet.Packet{Type: packet.TypeAck, MsgID: 1, Seq: 100})
	if rcv.Stats().AcksRelayed != 0 {
		t.Fatal("receiver relayed an ack from a non-successor")
	}
	// AcksSent counts protocol acknowledgments only (the AllocOK reply
	// is not one), so a forged aggregate must leave it at zero.
	if rcv.Stats().AcksSent != 0 {
		t.Fatalf("receiver sent %d acks after a forged aggregate", rcv.Stats().AcksSent)
	}
}

func TestReceiverReallocatesOnNewMessageID(t *testing.T) {
	ses, err := newSession(baseConfig(ProtoACK, 1))
	if err != nil {
		t.Fatal(err)
	}
	rcv := ses.receivers[0]
	inject(rcv, SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 1, Aux: 100})
	inject(rcv, SenderID, &packet.Packet{Type: packet.TypeData, MsgID: 1, Seq: 0, Flags: packet.FlagLast, Payload: bytes.Repeat([]byte{1}, 100)})
	if !rcv.Delivered() {
		t.Fatal("first message not delivered")
	}
	// A new allocation resets state even though the old one completed.
	inject(rcv, SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 2, Aux: 50})
	if rcv.Delivered() {
		t.Fatal("Delivered still true after reallocation")
	}
	// Late duplicate data from message 1 is ignored.
	inject(rcv, SenderID, &packet.Packet{Type: packet.TypeData, MsgID: 1, Seq: 0, Payload: []byte("zzz")})
	if rcv.Stats().DataReceived != 1 {
		t.Fatalf("stale-session data was counted: %+v", rcv.Stats())
	}
}

// TestConfigSpaceQuick fuzzes the protocol/parameter space: any valid
// configuration must deliver intact with and without mild loss.
func TestConfigSpaceQuick(t *testing.T) {
	f := func(protoRaw, nRaw, psRaw, wRaw, pollRaw, hRaw uint8, sizeRaw uint16, selective, naksupp bool, seed uint64) bool {
		proto := Protocol(protoRaw % 4)
		n := int(nRaw%6) + 2
		cfg := Config{
			Protocol:       proto,
			NumReceivers:   n,
			PacketSize:     int(psRaw)*16 + 64,
			WindowSize:     int(wRaw%12) + 2,
			NakSuppression: naksupp,
		}
		if selective {
			cfg.ARQ = ARQSelective
		}
		switch proto {
		case ProtoNAK:
			cfg.PollInterval = int(pollRaw)%cfg.WindowSize + 1
		case ProtoRing:
			cfg.WindowSize = n + int(wRaw%12) + 1
		case ProtoTree:
			cfg.TreeHeight = int(hRaw)%n + 1
		}
		ses, err := newSession(cfg)
		if err != nil {
			return false
		}
		if seed%3 == 0 {
			ses.net.drop = lossyDrop(0.03, seed)
		}
		msg := pattern(int(sizeRaw) % 40000)
		if !ses.run(msg, 5*time.Minute) {
			return false
		}
		for r := 1; r <= n; r++ {
			if !bytes.Equal(ses.delivered[r], msg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
