package live

import (
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/metrics"
	"rmcast/internal/packet"
)

// nullTransport discards every send, so a node built on it runs its
// receive path with no socket and no goroutine.
type nullTransport struct{}

func (nullTransport) WriteTo([]byte, netip.AddrPort) {}
func (nullTransport) LocalAddr() *net.UDPAddr        { return &net.UDPAddr{} }
func (nullTransport) Close()                         {}

// detachedNode builds a UDP-mode node (loop channel, reader free list)
// with no sockets and no event-loop goroutine: the test plays the
// reader through handoff and the loop through step.
func detachedNode(t *testing.T, pcfg core.Config, rank core.NodeID) *Node {
	t.Helper()
	n, err := newNode(Config{Rank: rank, Protocol: pcfg},
		netip.MustParseAddrPort("239.77.91.1:17000"), realClock{epoch: time.Now()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.tr = nullTransport{}
	return n
}

// step runs the next unit queued on n's event loop, as runLoop would.
func step(t *testing.T, n *Node) {
	select {
	case w := <-n.loop:
		n.run(w)
	default:
		t.Fatal("nothing was handed to the event loop")
	}
}

// TestLiveReceivePathZeroAllocs: once warm, a data frame's trip from a
// reader's scratch to the receiver state machine — the hand-off into a
// pooled buffer, the typed loop item, onWire's decode and dispatch, and
// the buffer's return — allocates nothing.
func TestLiveReceivePathZeroAllocs(t *testing.T) {
	const pkts, size = 200, 1000
	// NAK receivers acknowledge only polled packets, so unpolled data
	// provokes no reply and nothing is encoded.
	pcfg := core.Config{Protocol: core.ProtoNAK, NumReceivers: 1, PacketSize: size, WindowSize: 8, PollInterval: 4}
	n := detachedNode(t, pcfg, 1)
	from := netip.MustParseAddrPort("10.9.0.1:41000")
	deliver := func(frame []byte) {
		n.handoff(frame, from)
		step(t, n)
	}
	msg := livePattern(pkts * size)
	deliver((&packet.Packet{Type: packet.TypeAllocReq, MsgID: 1, Aux: uint32(len(msg))}).Encode())
	frames := make([][]byte, pkts)
	for i := range frames {
		frames[i] = (&packet.Packet{Type: packet.TypeData, MsgID: 1, Seq: uint32(i), Aux: uint32(i * size),
			Payload: msg[i*size : (i+1)*size]}).Encode()
	}
	next := 0
	for ; next < 10; next++ {
		deliver(frames[next])
	}
	allocs := testing.AllocsPerRun(100, func() {
		deliver(frames[next])
		next++
	})
	if allocs != 0 {
		t.Errorf("receive path allocates %.1f objects per data frame, want 0", allocs)
	}
	if got := n.ep.(*core.Receiver).Stats().DataReceived; got != uint64(next) {
		t.Fatalf("receiver accepted %d data packets, want %d: the frames did not reach it", got, next)
	}
}

// TestLiveDropsOwnMulticast: a node's own multicast, looped back by the
// kernel, is dropped by the reader before it is copied or decoded —
// plain v1 and v2 frames and a v2 carrier alike — and leaves the
// node's corrupt-frame and receive counts alone. A frame that merely
// claims the node's rank but fails the version guard still goes to the
// decoder and is counted corrupt; a peer's frame goes through.
func TestLiveDropsOwnMulticast(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		pcfg := core.Config{Protocol: core.ProtoNAK, NumReceivers: 2, PacketSize: 1000, WindowSize: 8,
			PollInterval: 4, WireV2: v2}
		n := detachedNode(t, pcfg, 1)
		from := netip.MustParseAddrPort("10.9.0.1:41000")
		encode := func(p packet.Packet) []byte {
			if v2 {
				f, _ := packet.EncodeV2(&p, packet.DefaultCompressThreshold)
				return f
			}
			return p.Encode()
		}
		own := [][]byte{
			encode(packet.Packet{Type: packet.TypeHello, Src: 1, Aux: 1}),
			encode(packet.Packet{Type: packet.TypeAck, Src: 1, MsgID: 1, Seq: 3}),
		}
		if v2 {
			var carrier []byte
			b := packet.Batcher{Emit: func(f []byte, inner, _ int) {
				if inner < 2 {
					t.Fatalf("batcher emitted %d packets, want a carrier", inner)
				}
				carrier = append([]byte(nil), f...)
			}}
			for seq := uint32(0); seq < 2; seq++ {
				b.Add(&packet.Packet{Type: packet.TypeData, Src: 1, MsgID: 1, Seq: seq, Payload: []byte("0123456789")})
			}
			b.Flush()
			own = append(own, carrier)
		}
		before := n.Metrics()
		for _, f := range own {
			n.handoff(f, from)
		}
		if k := len(n.loop); k != 0 {
			t.Fatalf("WireV2=%v: %d of the node's own frames reached the event loop", v2, k)
		}
		after := n.Metrics()
		if after.CorruptFrames != before.CorruptFrames || after.TotalReceived() != before.TotalReceived() {
			t.Errorf("WireV2=%v: own multicast moved the counts: corrupt %d→%d, received %d→%d", v2,
				before.CorruptFrames, after.CorruptFrames, before.TotalReceived(), after.TotalReceived())
		}

		badVersion := encode(packet.Packet{Type: packet.TypeHello, Src: 1})
		badVersion[1] = 9
		n.handoff(badVersion, from)
		step(t, n)
		if got := n.Metrics().CorruptFrames - after.CorruptFrames; got != 1 {
			t.Errorf("WireV2=%v: a bad-version frame naming our rank counted %d corrupt, want 1", v2, got)
		}

		n.handoff(encode(packet.Packet{Type: packet.TypeHello, Src: 2}), from)
		step(t, n)
		if got := n.Metrics().Received["hello"]; got != 1 {
			t.Errorf("WireV2=%v: a peer's hello counted %d received, want 1", v2, got)
		}
	}
}

// TestLiveOnlyHelloMovesKnownPeer: any packet teaches an unknown peer's
// address, but a known one changes only on a hello.
func TestLiveOnlyHelloMovesKnownPeer(t *testing.T) {
	pcfg := core.Config{Protocol: core.ProtoACK, NumReceivers: 2, PacketSize: 1000, WindowSize: 4}
	n := detachedNode(t, pcfg, 1)
	a := netip.MustParseAddrPort("10.9.0.2:41000")
	b := netip.MustParseAddrPort("10.9.0.66:6666")
	ack := (&packet.Packet{Type: packet.TypeAck, Src: 2, MsgID: 9}).Encode()
	hello := (&packet.Packet{Type: packet.TypeHello, Src: 2}).Encode()
	for _, c := range []struct {
		what  string
		frame []byte
		from  netip.AddrPort
		want  netip.AddrPort
	}{
		{"ack from an unknown peer", ack, a, a},
		{"ack from a new address", ack, b, a},
		{"hello from a new address", hello, b, b},
	} {
		n.onWire(c.frame, c.from)
		if got := n.addrs[2]; got != c.want {
			t.Errorf("%s: rank 2 at %v, want %v", c.what, got, c.want)
		}
	}
}

// TestLiveSendErrorsCounted: a datagram the socket refuses is counted,
// not silently lost.
func TestLiveSendErrorsCounted(t *testing.T) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no UDP socket: %v", err)
	}
	defer conn.Close()
	mx := metrics.NewSession()
	tr := &udpTransport{uconn: conn, mx: mx}
	dst := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	tr.WriteTo(make([]byte, 70000), dst) // past UDP's 64 KiB datagram limit
	tr.WriteTo([]byte("fits"), dst)
	if got := mx.Snapshot().SendErrors; got != 1 {
		t.Errorf("send_errors = %d, want 1", got)
	}
}

// TestNewNodeReturnsReadBufferError: a failure to size either socket's
// receive buffer fails NewNode instead of leaving a node whose buffer
// is silently the kernel default.
func TestNewNodeReturnsReadBufferError(t *testing.T) {
	multicastAvailable(t)
	defer func(orig func(*net.UDPConn, int) error) { setReadBuffer = orig }(setReadBuffer)
	refused := errors.New("refused")
	pcfg := core.Config{Protocol: core.ProtoACK, NumReceivers: 1, PacketSize: 1000, WindowSize: 4}
	for failAt, socket := range []string{"multicast", "unicast"} {
		calls := 0
		setReadBuffer = func(c *net.UDPConn, n int) error {
			calls++
			if calls == failAt+1 {
				return refused
			}
			return c.SetReadBuffer(n)
		}
		n, err := NewNode(Config{Group: testGroup(), Rank: 1, Protocol: pcfg})
		if err == nil {
			n.Close()
			t.Errorf("%s socket: NewNode ignored the read-buffer error", socket)
		} else if !errors.Is(err, refused) {
			t.Errorf("%s socket: NewNode returned %v, want the read-buffer error", socket, err)
		}
	}
}

// TestLiveReaderBuffersBounded: the free list holds no more buffers
// than were ever on loan to the event loop at once, none larger than
// the largest datagram handed off, and a later, smaller burst reuses
// them without growing it.
func TestLiveReaderBuffersBounded(t *testing.T) {
	pcfg := core.Config{Protocol: core.ProtoNAK, NumReceivers: 2, PacketSize: 1000, WindowSize: 8, PollInterval: 4}
	n := detachedNode(t, pcfg, 1)
	from := netip.MustParseAddrPort("10.9.0.1:41000")
	hello := (&packet.Packet{Type: packet.TypeHello, Src: 2}).Encode()
	big := (&packet.Packet{Type: packet.TypeData, Src: 0, MsgID: 5, Payload: make([]byte, 1000)}).Encode()
	burst := func(frames ...[]byte) {
		for _, f := range frames {
			n.handoff(f, from)
		}
		for len(n.loop) > 0 {
			step(t, n)
		}
	}
	burst(hello, big, hello, big, hello, hello, big, hello)
	if got := len(n.rx.list); got != 8 {
		t.Fatalf("free list holds %d buffers after 8 on loan, want 8", got)
	}
	burst(big, big, hello)
	if got := len(n.rx.list); got != 8 {
		t.Errorf("free list holds %d buffers after a burst of 3, want still 8", got)
	}
	for _, b := range n.rx.list {
		if cap(b) > len(big) {
			t.Errorf("a free buffer holds %d bytes, more than the largest datagram (%d)", cap(b), len(big))
		}
	}
}
