package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
	return detachedNodeConfig(t, Config{Rank: rank, Protocol: pcfg})
}

// detachedNodeConfig is detachedNode for a full node Config.
func detachedNodeConfig(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := newNode(cfg,
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

// recvCfg is the delivery tests' session: one NAK receiver, which
// acknowledges only polled packets.
var recvCfg = core.Config{Protocol: core.ProtoNAK, NumReceivers: 1, PacketSize: 1000, WindowSize: 8, PollInterval: 4}

// messageFrames encodes one whole message from the sender in recvCfg's
// packets — the allocation request and its data packets, the last one
// polled — as a reader would see them.
func messageFrames(msgID uint32, msg []byte) [][]byte {
	size := recvCfg.PacketSize
	frames := [][]byte{(&packet.Packet{Type: packet.TypeAllocReq, MsgID: msgID, Aux: uint32(len(msg))}).Encode()}
	for off := 0; off < len(msg); off += size {
		end := min(off+size, len(msg))
		p := &packet.Packet{Type: packet.TypeData, MsgID: msgID, Seq: uint32(off / size), Aux: uint32(off),
			Payload: msg[off:end]}
		if end == len(msg) {
			p.Flags = packet.FlagPoll | packet.FlagLast
		}
		frames = append(frames, p.Encode())
	}
	return frames
}

// receive hands every frame to n's reader side and runs its event loop.
func receive(t *testing.T, n *Node, frames [][]byte) {
	t.Helper()
	from := netip.MustParseAddrPort("10.9.0.1:41000")
	for _, f := range frames {
		n.handoff(f, from)
		step(t, n)
	}
}

// TestLiveDeliveryPathZeroAllocs: a receiver whose application never
// calls Recv delivers whole messages without allocating once its queue
// is full — the queue shares the receiver's buffer instead of copying
// it, and each eviction returns a buffer the next session draws.
func TestLiveDeliveryPathZeroAllocs(t *testing.T) {
	const warm, runs = 40, 100
	n := detachedNode(t, recvCfg, 1)
	msg := livePattern(4 * recvCfg.PacketSize)
	var msgs [][][]byte
	for id := uint32(1); id <= warm+runs+1; id++ {
		msgs = append(msgs, messageFrames(id, msg))
	}
	next := 0
	for ; next < warm; next++ {
		receive(t, n, msgs[next])
	}
	allocs := testing.AllocsPerRun(runs, func() {
		receive(t, n, msgs[next])
		next++
	})
	if allocs != 0 {
		t.Errorf("a delivered message allocates %.1f objects with nobody calling Recv, want 0", allocs)
	}
	if got, want := n.Metrics().RecvQEvictions, uint64(next-cap(n.recvQ)); got != want {
		t.Fatalf("%d messages evicted, want %d: the messages were not all delivered", got, want)
	}
}

// TestOnDeliverNodeHasNoRecvQueue: a node that hands deliveries to
// Config.OnDeliver keeps none of them for Recv — no queue, no eviction,
// no buffer retained past the hook — so after the first message every
// delivery reuses the receiver's one buffer and allocates nothing, and
// Recv fails at once instead of blocking.
func TestOnDeliverNodeHasNoRecvQueue(t *testing.T) {
	const msgs = 40
	delivered := 0
	msg := livePattern(4 * recvCfg.PacketSize)
	n := detachedNodeConfig(t, Config{Rank: 1, Protocol: recvCfg,
		OnDeliver: func(_ time.Duration, payload []byte) {
			if bytes.Equal(payload, msg) {
				delivered++
			}
		}})
	var frames [][][]byte
	for id := uint32(1); id <= msgs; id++ {
		frames = append(frames, messageFrames(id, msg))
	}
	receive(t, n, frames[0])
	next := 1
	allocs := testing.AllocsPerRun(msgs-2, func() {
		receive(t, n, frames[next])
		next++
	})
	if allocs != 0 {
		t.Errorf("a message delivered through OnDeliver allocates %.1f objects, want 0", allocs)
	}
	if delivered != msgs {
		t.Fatalf("OnDeliver saw %d whole messages, want %d", delivered, msgs)
	}
	if n.recvQ != nil {
		t.Fatal("a node with OnDeliver made a Recv queue")
	}
	if ev := n.Metrics().RecvQEvictions; ev != 0 {
		t.Fatalf("%d evictions from a node with no queue", ev)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := n.Recv(ctx); err == nil || ctx.Err() != nil {
		t.Fatalf("Recv on an OnDeliver node = %v, want an immediate error", err)
	}
	n.Close()
}

// TestRecvReturnsCallersCopy: Recv hands the application a copy, so
// scribbling over it leaves the receiver's buffer — still the source
// of any snapshot it serves a joining peer — as delivered.
func TestRecvReturnsCallersCopy(t *testing.T) {
	n := detachedNode(t, recvCfg, 1)
	msg := livePattern(3*recvCfg.PacketSize + 17)
	receive(t, n, messageFrames(1, msg))
	kept := n.ep.(*core.Receiver).Retain()
	defer kept.Release()
	got, err := n.Recv(context.Background())
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("Recv = %d bytes, %v; want the delivered message", len(got), err)
	}
	for i := range got {
		got[i] ^= 0xFF
	}
	if !bytes.Equal(kept.Bytes(), msg) {
		t.Fatal("writing to Recv's result changed the receiver's buffer")
	}
}

// TestRecvRacesEvictions: an application reading with Recv while the
// event loop delivers, evicts and starts new sessions shares each
// message's reference count across the two goroutines. Every message
// it reads is whole and newer than the last, whichever side dropped
// the last reference to a buffer the next session then reuses.
func TestRecvRacesEvictions(t *testing.T) {
	const msgs = 200
	size := 3 * recvCfg.PacketSize
	n := detachedNode(t, recvCfg, 1)
	n.wg.Add(1)
	go n.runLoop()
	defer n.Close()
	read := make(chan error, 1)
	go func() {
		last := byte(0)
		for last < msgs {
			b, err := n.Recv(context.Background())
			if err != nil {
				read <- err
				return
			}
			if len(b) != size || b[0] <= last || !bytes.Equal(b, bytes.Repeat(b[:1], len(b))) {
				read <- fmt.Errorf("after message %d Recv returned %d bytes starting % x", last, len(b), b[:min(len(b), 8)])
				return
			}
			last = b[0]
		}
		read <- nil
	}()
	from := netip.MustParseAddrPort("10.9.0.1:41000")
	for id := uint32(1); id <= msgs; id++ {
		for _, f := range messageFrames(id, bytes.Repeat([]byte{byte(id)}, size)) {
			n.handoff(f, from)
		}
	}
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the reader never received the last message")
	}
}

// TestCloseReleasesQueuedMessages: Close drops the messages nobody
// received and releases each exactly once. The test holds one extra
// reference to each: after Close that reference must be the last, so
// releasing it once more panics.
func TestCloseReleasesQueuedMessages(t *testing.T) {
	n := detachedNode(t, recvCfg, 1)
	var kept []*core.Message
	for id := uint32(1); id <= 3; id++ {
		receive(t, n, messageFrames(id, livePattern(2*recvCfg.PacketSize)))
		kept = append(kept, n.ep.(*core.Receiver).Retain())
	}
	if len(n.recvQ) != len(kept) {
		t.Fatalf("%d messages queued, want %d", len(n.recvQ), len(kept))
	}
	n.wg.Add(1)
	go n.runLoop() // runs the shutdown drain a UDP node's loop runs
	n.Close()
	if len(n.recvQ) != 0 {
		t.Fatalf("%d messages still queued after Close", len(n.recvQ))
	}
	if _, err := n.Recv(context.Background()); err == nil {
		t.Fatal("Recv after Close returned a message")
	}
	for i, m := range kept {
		m.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("message %d: Close left a reference behind", i+1)
				}
			}()
			m.Release()
		}()
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
	if got := n.rx.Len(); got != 8 {
		t.Fatalf("free list holds %d buffers after 8 on loan, want 8", got)
	}
	burst(big, big, hello)
	if got := n.rx.Len(); got != 8 {
		t.Errorf("free list holds %d buffers after a burst of 3, want still 8", got)
	}
	for b, ok := n.rx.Get(); ok; b, ok = n.rx.Get() {
		if cap(b) > len(big) {
			t.Errorf("a free buffer holds %d bytes, more than the largest datagram (%d)", cap(b), len(big))
		}
	}
}
