package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rmcast/internal/packet"
)

// baseConfig returns a valid config for each protocol with n receivers.
func baseConfig(p Protocol, n int) Config {
	cfg := Config{
		Protocol:     p,
		NumReceivers: n,
		PacketSize:   1000,
		WindowSize:   8,
	}
	switch p {
	case ProtoNAK:
		cfg.PollInterval = 6
	case ProtoRing:
		cfg.WindowSize = n + 8
	case ProtoTree:
		cfg.TreeHeight = 3
	}
	return cfg
}

var reliableProtocols = []Protocol{ProtoACK, ProtoNAK, ProtoRing, ProtoTree}

func TestAllProtocolsDeliverIntact(t *testing.T) {
	for _, proto := range reliableProtocols {
		for _, size := range []int{0, 1, 999, 1000, 1001, 12345, 100000} {
			t.Run(fmt.Sprintf("%v/size=%d", proto, size), func(t *testing.T) {
				ses, err := newSession(baseConfig(proto, 7))
				if err != nil {
					t.Fatal(err)
				}
				msg := pattern(size)
				if !ses.run(msg, 10*time.Second) {
					t.Fatal("sender did not complete")
				}
				for r := 1; r <= 7; r++ {
					if !ses.receivers[r-1].Delivered() {
						t.Fatalf("receiver %d did not deliver", r)
					}
					if !bytes.Equal(ses.delivered[r], msg) {
						t.Fatalf("receiver %d delivered corrupted message", r)
					}
				}
			})
		}
	}
}

func TestAllProtocolsSurviveLoss(t *testing.T) {
	for _, proto := range reliableProtocols {
		for _, rate := range []float64{0.02, 0.10} {
			t.Run(fmt.Sprintf("%v/loss=%v", proto, rate), func(t *testing.T) {
				cfg := baseConfig(proto, 5)
				ses, err := newSession(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ses.net.drop = lossyDrop(rate, 0xfeed+uint64(proto)+uint64(rate*100))
				msg := pattern(25000)
				if !ses.run(msg, 5*time.Minute) {
					t.Fatalf("sender did not complete under %.0f%% loss (dropped %d/%d)",
						rate*100, ses.net.dropped, ses.net.sent)
				}
				for r := 1; r <= 5; r++ {
					if !bytes.Equal(ses.delivered[r], msg) {
						t.Fatalf("receiver %d corrupted or missing under loss", r)
					}
				}
				if ses.sender.Stats().Retransmissions == 0 && ses.net.dropped > 0 {
					// Only alloc/ack drops can make this legitimately zero;
					// with 10% loss over 25 packets it is implausible.
					if rate >= 0.10 {
						t.Error("no retransmissions despite heavy loss")
					}
				}
			})
		}
	}
}

func TestAckProtocolAckCounts(t *testing.T) {
	// Error-free ACK-based run: every receiver ACKs every packet
	// (Table 2: N control packets per data packet).
	const n, size = 6, 20000
	cfg := baseConfig(ProtoACK, n)
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ses.run(pattern(size), 10*time.Second) {
		t.Fatal("did not complete")
	}
	count := cfg.PacketCount(size)
	st := ses.sender.Stats()
	if st.AcksReceived != uint64(count)*n {
		t.Errorf("sender processed %d acks, want count*N = %d", st.AcksReceived, uint64(count)*n)
	}
	if st.Retransmissions != 0 {
		t.Errorf("retransmissions = %d in an error-free run", st.Retransmissions)
	}
	for _, rcv := range ses.receivers {
		if got := rcv.Stats().AcksSent; got != uint64(count) {
			t.Errorf("receiver sent %d acks, want %d", got, count)
		}
	}
}

func TestNakProtocolAckCounts(t *testing.T) {
	// NAK with polling: each receiver ACKs only polled packets —
	// ceil(count/i) of them (the last is always polled; with count a
	// multiple of i the last is also on the poll grid).
	const n = 6
	cfg := baseConfig(ProtoNAK, n)
	cfg.PollInterval = 4
	size := 20 * cfg.PacketSize // count = 20, polls at 4,8,12,16,20
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ses.run(pattern(size), 10*time.Second) {
		t.Fatal("did not complete")
	}
	wantPolls := uint64(5)
	for _, rcv := range ses.receivers {
		if got := rcv.Stats().AcksSent; got != wantPolls {
			t.Errorf("receiver sent %d acks, want %d", got, wantPolls)
		}
	}
	st := ses.sender.Stats()
	if st.AcksReceived != wantPolls*n {
		t.Errorf("sender processed %d acks, want %d", st.AcksReceived, wantPolls*n)
	}
	if st.NaksReceived != 0 {
		t.Errorf("NAKs in an error-free run: %d", st.NaksReceived)
	}
}

func TestRingProtocolAckCounts(t *testing.T) {
	// Ring: exactly one receiver ACKs each packet, except the last
	// packet which all N acknowledge.
	const n = 5
	cfg := baseConfig(ProtoRing, n)
	size := 23 * cfg.PacketSize
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ses.run(pattern(size), 10*time.Second) {
		t.Fatal("did not complete")
	}
	count := uint64(cfg.PacketCount(size))
	st := ses.sender.Stats()
	want := count - 1 + n
	if st.AcksReceived != want {
		t.Errorf("sender processed %d acks, want count-1+N = %d", st.AcksReceived, want)
	}
}

func TestRingReceiverResponsibility(t *testing.T) {
	cfg := baseConfig(ProtoRing, 4)
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	size := 12 * cfg.PacketSize
	if !ses.run(pattern(size), 10*time.Second) {
		t.Fatal("did not complete")
	}
	// 12 packets, 4 receivers: each receiver owns 3 packets; receiver 4
	// also acks the last packet via its rotation slot (seq 11 ≡ 3 mod 4)
	// so all *other* receivers ack it via the last-packet rule.
	for i, rcv := range ses.receivers {
		got := rcv.Stats().AcksSent
		want := uint64(3)
		if i != 3 {
			want = 4 // 3 rotation slots + the all-ack on the last packet
		}
		if got != want {
			t.Errorf("receiver %d sent %d acks, want %d", i+1, got, want)
		}
	}
}

func TestTreeHeightOneEqualsAckProtocol(t *testing.T) {
	// H=1: every receiver is a chain head reporting straight to the
	// sender — identical control traffic to the ACK-based protocol.
	const n, size = 6, 20000
	cfgTree := baseConfig(ProtoTree, n)
	cfgTree.TreeHeight = 1
	cfgAck := baseConfig(ProtoACK, n)

	sesT, err := newSession(cfgTree)
	if err != nil {
		t.Fatal(err)
	}
	if !sesT.run(pattern(size), 10*time.Second) {
		t.Fatal("tree did not complete")
	}
	sesA, err := newSession(cfgAck)
	if err != nil {
		t.Fatal(err)
	}
	if !sesA.run(pattern(size), 10*time.Second) {
		t.Fatal("ack did not complete")
	}
	if got, want := sesT.sender.Stats().AcksReceived, sesA.sender.Stats().AcksReceived; got != want {
		t.Errorf("tree H=1 sender acks = %d, ACK-based = %d; should match", got, want)
	}
}

func TestTreeSenderOnlyHearsHeads(t *testing.T) {
	cfg := baseConfig(ProtoTree, 9)
	cfg.TreeHeight = 3 // 3 chains of 3
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	size := 15 * cfg.PacketSize
	if !ses.run(pattern(size), 10*time.Second) {
		t.Fatal("did not complete")
	}
	count := uint64(cfg.PacketCount(size))
	st := ses.sender.Stats()
	// Aggregation can merge several sequences into one ack, so the
	// sender hears at most count acks per chain and at least one.
	if st.AcksReceived > count*3 {
		t.Errorf("sender processed %d acks, more than count×chains = %d", st.AcksReceived, count*3)
	}
	if st.AcksReceived < 3 {
		t.Errorf("sender processed %d acks, fewer than one per chain", st.AcksReceived)
	}
	// Non-head receivers relay: each mid-chain node both sends and
	// receives acks.
	tree := NewFlatTree(9, 3)
	for i, rcv := range ses.receivers {
		rank := NodeID(i + 1)
		stats := rcv.Stats()
		if _, hasSucc := tree.Succ(rank); hasSucc {
			if stats.AcksRelayed == 0 {
				t.Errorf("receiver %d has a successor but relayed no acks", rank)
			}
		} else if stats.AcksRelayed != 0 {
			t.Errorf("tail receiver %d relayed %d acks", rank, stats.AcksRelayed)
		}
	}
}

func TestSenderRejectsSecondStart(t *testing.T) {
	ses, err := newSession(baseConfig(ProtoACK, 2))
	if err != nil {
		t.Fatal(err)
	}
	ses.net.s.After(0, func() { ses.sender.Start(pattern(100)) })
	ses.net.s.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	ses.sender.Start(pattern(100))
}

func TestSequentialMessages(t *testing.T) {
	// The same endpoints carry two messages back to back; MsgID keeps
	// the sessions apart.
	ses, err := newSession(baseConfig(ProtoACK, 3))
	if err != nil {
		t.Fatal(err)
	}
	msg1 := pattern(5000)
	if !ses.run(msg1, 10*time.Second) {
		t.Fatal("first message did not complete")
	}
	for r := 1; r <= 3; r++ {
		if !bytes.Equal(ses.delivered[r], msg1) {
			t.Fatalf("receiver %d: first message corrupted", r)
		}
	}
	msg2 := pattern(7777)
	for i := range msg2 {
		msg2[i] ^= 0xFF
	}
	ses.senderOK = false
	ses.net.s.After(0, func() { ses.sender.Start(msg2) })
	for ses.net.s.Pending() > 0 && !ses.senderOK {
		ses.net.s.Step()
	}
	if !ses.senderOK {
		t.Fatal("second message did not complete")
	}
	for r := 1; r <= 3; r++ {
		if !bytes.Equal(ses.delivered[r], msg2) {
			t.Fatalf("receiver %d: second message corrupted", r)
		}
	}
}

func TestRawUDPDeliversWithoutLoss(t *testing.T) {
	m := newMockNet(4)
	cfg := Config{Protocol: ProtoRawUDP, NumReceivers: 4, PacketSize: 1000}
	done := false
	snd, err := NewRawSender(m.env(SenderID), cfg, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	m.register(SenderID, snd)
	msg := pattern(9500)
	delivered := make([][]byte, 5)
	for r := 1; r <= 4; r++ {
		r := r
		rcv, err := NewRawReceiver(m.env(NodeID(r)), cfg, NodeID(r), len(msg), func(b []byte) {
			delivered[r] = b
		})
		if err != nil {
			t.Fatal(err)
		}
		m.register(NodeID(r), rcv)
	}
	m.s.After(0, func() { snd.Start(msg) })
	m.s.Run()
	if !done {
		t.Fatal("raw sender did not complete")
	}
	for r := 1; r <= 4; r++ {
		if !bytes.Equal(delivered[r], msg) {
			t.Fatalf("receiver %d: corrupted", r)
		}
	}
	if st := snd.Stats(); st.AcksReceived != 4 {
		t.Errorf("raw sender got %d acks, want exactly 4 (one per receiver)", st.AcksReceived)
	}
}

func TestRawUDPIsNotReliable(t *testing.T) {
	// The baseline measures timing only: receivers reply on receipt of
	// the *last* packet whether or not earlier ones were lost (exactly
	// how the paper measured raw UDP). Dropping a middle packet must
	// therefore let the sender "complete" while the affected receiver
	// never delivers.
	m := newMockNet(2)
	cfg := Config{Protocol: ProtoRawUDP, NumReceivers: 2, PacketSize: 1000}
	done := false
	snd, _ := NewRawSender(m.env(SenderID), cfg, func() { done = true })
	m.register(SenderID, snd)
	rcvs := make([]*RawReceiver, 3)
	for r := 1; r <= 2; r++ {
		rcv, _ := NewRawReceiver(m.env(NodeID(r)), cfg, NodeID(r), 5000, nil)
		rcvs[r] = rcv
		m.register(NodeID(r), rcv)
	}
	first := true
	m.drop = func(_, to NodeID, p *packet.Packet) bool {
		if to == 1 && p.Type == packet.TypeData && p.Seq == 2 && first {
			first = false
			return true
		}
		return false
	}
	m.s.After(0, func() { snd.Start(pattern(5000)) })
	m.s.Run()
	if !done {
		t.Fatal("raw sender did not complete (receivers still reply on the last packet)")
	}
	if rcvs[1].Delivered() {
		t.Fatal("receiver 1 delivered despite a lost packet")
	}
	if !rcvs[2].Delivered() {
		t.Fatal("receiver 2 (no loss) did not deliver")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no receivers", Config{Protocol: ProtoACK, PacketSize: 100, WindowSize: 1}},
		{"zero packet size", Config{Protocol: ProtoACK, NumReceivers: 1, WindowSize: 1}},
		{"oversize packet", Config{Protocol: ProtoACK, NumReceivers: 1, WindowSize: 1, PacketSize: MaxPacketSize + 1}},
		{"zero window", Config{Protocol: ProtoACK, NumReceivers: 1, PacketSize: 100}},
		{"nak no poll", Config{Protocol: ProtoNAK, NumReceivers: 1, PacketSize: 100, WindowSize: 4}},
		{"nak poll > window", Config{Protocol: ProtoNAK, NumReceivers: 1, PacketSize: 100, WindowSize: 4, PollInterval: 5}},
		{"ring window <= N", Config{Protocol: ProtoRing, NumReceivers: 8, PacketSize: 100, WindowSize: 8}},
		{"tree zero height", Config{Protocol: ProtoTree, NumReceivers: 4, PacketSize: 100, WindowSize: 4}},
		{"tree height > N", Config{Protocol: ProtoTree, NumReceivers: 4, PacketSize: 100, WindowSize: 4, TreeHeight: 5}},
	}
	for _, c := range cases {
		if _, err := c.cfg.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted an invalid config", c.name)
		}
	}
	good := baseConfig(ProtoNAK, 4)
	norm, err := good.Normalize()
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if norm.RetransTimeout == 0 || norm.AllocTimeout == 0 || norm.SuppressInterval == 0 || norm.NakInterval == 0 {
		t.Error("Normalize did not fill timing defaults")
	}
}

// TestNormalizeARQ pins the one ARQ knob over ARQ × WireV2: Auto
// follows the wire format, an explicit scheme survives either format,
// and past Normalize only the two explicit schemes exist. The v2 wire
// knobs ride the same table: refused without WireV2 or below the
// carrier floor, and their zero values left for internal/wire.
func TestNormalizeARQ(t *testing.T) {
	for _, c := range []struct {
		arq    ARQMode
		wireV2 bool
		want   ARQMode
	}{
		{ARQAuto, false, ARQGoBackN},
		{ARQAuto, true, ARQSelective},
		{ARQGoBackN, false, ARQGoBackN},
		{ARQGoBackN, true, ARQGoBackN},
		{ARQSelective, false, ARQSelective},
		{ARQSelective, true, ARQSelective},
	} {
		cfg := baseConfig(ProtoACK, 3)
		cfg.ARQ, cfg.WireV2 = c.arq, c.wireV2
		norm, err := cfg.Normalize()
		if err != nil {
			t.Fatalf("ARQ %v, WireV2 %v: %v", c.arq, c.wireV2, err)
		}
		if norm.ARQ != c.want {
			t.Errorf("ARQ %v, WireV2 %v: resolved to %v, want %v", c.arq, c.wireV2, norm.ARQ, c.want)
		}
		if again, _ := norm.Normalize(); again.ARQ != norm.ARQ {
			t.Errorf("ARQ %v, WireV2 %v: Normalize is not idempotent (%v then %v)", c.arq, c.wireV2, norm.ARQ, again.ARQ)
		}
		if c.wireV2 && (norm.CompressThreshold != 0 || norm.CoalesceMTU != 0) {
			t.Errorf("Normalize resolved the v2 wire defaults (%d, %d); that is internal/wire's job",
				norm.CompressThreshold, norm.CoalesceMTU)
		}
	}
	const floor = packet.MinCoalesceMTU
	for name, mut := range map[string]func(*Config){
		"invalid ARQ":             func(c *Config) { c.ARQ = ARQSelective + 1 },
		"threshold without v2":    func(c *Config) { c.CompressThreshold = -1 },
		"MTU without v2":          func(c *Config) { c.CoalesceMTU = 1472 },
		"MTU below carrier floor": func(c *Config) { c.WireV2, c.CoalesceMTU = true, floor-1 },
	} {
		cfg := baseConfig(ProtoACK, 3)
		mut(&cfg)
		if _, err := cfg.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted an invalid config", name)
		}
	}
	ok := baseConfig(ProtoACK, 3)
	ok.WireV2, ok.CompressThreshold, ok.CoalesceMTU = true, -1, floor
	if _, err := ok.Normalize(); err != nil {
		t.Errorf("compression off at the MTU floor rejected: %v", err)
	}
}

func TestPacketCount(t *testing.T) {
	cfg := Config{PacketSize: 1000}
	cases := []struct {
		size  int
		count uint32
	}{{0, 1}, {1, 1}, {999, 1}, {1000, 1}, {1001, 2}, {2000, 2}, {2001, 3}}
	for _, c := range cases {
		if got := cfg.PacketCount(c.size); got != c.count {
			t.Errorf("PacketCount(%d) = %d, want %d", c.size, got, c.count)
		}
	}
}

func TestParseProtocol(t *testing.T) {
	for _, p := range []Protocol{ProtoACK, ProtoNAK, ProtoRing, ProtoTree, ProtoRawUDP} {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Error("ParseProtocol accepted garbage")
	}
}
