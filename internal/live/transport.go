package live

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"rmcast/internal/metrics"
)

// This file defines the two seams that separate a Node's protocol logic
// from its runtime: where datagrams go (transport) and what time it is
// (nodeClock). Production nodes bind them to real UDP sockets and the
// wall clock; the deterministic loopback network (loopback.go) binds
// them to channel-free in-process delivery over a discrete-event
// simulator, which is what makes live sessions replayable. Timers are
// not a seam: they are events on the node's timer queue (Node.q), which
// a UDP node's loop runs against the wall clock and the loopback
// network runs as part of its own simulator.

// nodeClock supplies a node's notion of elapsed time. Now is relative
// to the clock's epoch (node creation for the wall clock, net creation
// for loopback), so all node timekeeping is expressed as offsets, never
// absolute instants.
type nodeClock interface {
	Now() time.Duration
}

// transport moves encoded datagrams for one node. Inbound datagrams are
// pushed into the callback given at construction.
type transport interface {
	// WriteTo sends one encoded datagram to addr — a peer's unicast
	// address or the group address, which fans out to every member.
	WriteTo(b []byte, addr netip.AddrPort)
	// LocalAddr is the node's unicast source address.
	LocalAddr() *net.UDPAddr
	// Close stops inbound delivery and releases resources. Idempotent;
	// when it returns, no further datagrams reach the node.
	Close()
}

// realClock is the wall clock, with Now anchored at node creation.
type realClock struct{ epoch time.Time }

func (c realClock) Now() time.Duration { return time.Since(c.epoch) }

// udpTransport is the production transport: a multicast listener joined
// to the group plus a unicast socket that sources every transmission,
// so peers learn a node's unicast address from any packet it sends.
type udpTransport struct {
	mconn *net.UDPConn // multicast receive
	uconn *net.UDPConn // unicast send+receive; source of all packets
	// deliver takes one datagram from a reader: frame is a borrow of the
	// reader's scratch, valid only during the call.
	deliver func(frame []byte, src netip.AddrPort)
	mx      *metrics.Session // counts refused sends
	closing chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
}

// setReadBuffer sizes a socket's kernel receive buffer; a variable so
// that tests can make it fail.
var setReadBuffer = (*net.UDPConn).SetReadBuffer

func newUDPTransport(group *net.UDPAddr, ifi *net.Interface, readBuffer int, mx *metrics.Session,
	deliver func([]byte, netip.AddrPort)) (*udpTransport, error) {
	mconn, err := net.ListenMulticastUDP("udp4", ifi, group)
	if err != nil {
		return nil, fmt.Errorf("live: joining %v: %w", group, err)
	}
	uconn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero, Port: 0})
	if err != nil {
		mconn.Close()
		return nil, fmt.Errorf("live: unicast socket: %w", err)
	}
	// Linux clamps an oversized request to rmem_max without an error,
	// so a failure here is a real one.
	for _, c := range []*net.UDPConn{mconn, uconn} {
		if err := setReadBuffer(c, readBuffer); err != nil {
			mconn.Close()
			uconn.Close()
			return nil, fmt.Errorf("live: receive buffer of %d bytes: %w", readBuffer, err)
		}
	}
	tr := &udpTransport{
		mconn:   mconn,
		uconn:   uconn,
		deliver: deliver,
		mx:      mx,
		closing: make(chan struct{}),
	}
	tr.wg.Add(2)
	go tr.reader(mconn)
	go tr.reader(uconn)
	return tr, nil
}

// WriteTo sends b from the unicast socket. A datagram the socket
// refuses is lost like one dropped on the wire, and counted.
func (tr *udpTransport) WriteTo(b []byte, addr netip.AddrPort) {
	if _, err := tr.uconn.WriteToUDPAddrPort(b, addr); err != nil {
		tr.mx.CountSendError()
	}
}

func (tr *udpTransport) LocalAddr() *net.UDPAddr {
	return tr.uconn.LocalAddr().(*net.UDPAddr)
}

// Close shuts both sockets and waits for the reader goroutines to exit,
// so no deliver call can race the caller's teardown.
func (tr *udpTransport) Close() {
	tr.once.Do(func() {
		close(tr.closing)
		tr.mconn.Close()
		tr.uconn.Close()
	})
	tr.wg.Wait()
}

// reader pumps one socket into the deliver callback, reading every
// datagram into one 64 KiB scratch buffer; deliver copies out what it
// keeps.
func (tr *udpTransport) reader(conn *net.UDPConn) {
	defer tr.wg.Done()
	buf := make([]byte, 65536)
	for {
		nr, src, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-tr.closing:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		tr.deliver(buf[:nr], src)
	}
}
