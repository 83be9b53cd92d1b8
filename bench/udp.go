package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/live"
	"rmcast/internal/rng"
	"rmcast/internal/trace"
)

// linkNote goes into every result set: loopback numbers say nothing
// about a wire.
const linkNote = "host loopback, no real link"

// groupSeq separates the groups one process opens in sequence (repeated
// set-ups, the traced pass's rigs).
var groupSeq atomic.Uint64

// groupAddr derives a multicast group and port from the process id, the
// seed and a per-process counter, so concurrent benchmark runs on one
// host cannot hear each other.
func groupAddr(seed uint64) string {
	h := rng.Mix(uint64(os.Getpid()), seed, groupSeq.Add(1))
	return fmt.Sprintf("239.77.%d.%d:%d", 1+h%250, 1+(h>>8)%250, 20000+(h>>16)%20000)
}

// probeMulticast checks once that this host delivers loopback multicast
// at all, the way internal/live's tests do. The benchmark never
// substitutes another transport: no multicast, no live_udp numbers.
func probeMulticast(group string) error {
	gaddr, err := net.ResolveUDPAddr("udp4", group)
	if err != nil {
		return err
	}
	recv, err := net.ListenMulticastUDP("udp4", nil, gaddr)
	if err != nil {
		return fmt.Errorf("joining %v: %w", gaddr, err)
	}
	defer recv.Close()
	send, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return err
	}
	defer send.Close()
	probe := []byte("rmcast-bench-probe")
	deadline := time.Now().Add(500 * time.Millisecond)
	if err := recv.SetReadDeadline(deadline); err != nil {
		return err
	}
	got := make(chan bool, 1)
	go func() {
		buf := make([]byte, 64)
		n, _, err := recv.ReadFromUDP(buf)
		got <- err == nil && bytes.Equal(buf[:n], probe)
	}()
	for time.Now().Before(deadline) {
		if _, err := send.WriteToUDP(probe, gaddr); err != nil {
			<-got
			return fmt.Errorf("multicast send to %v: %w", gaddr, err)
		}
		select {
		case ok := <-got:
			if ok {
				return nil
			}
			return errors.New("loopback multicast delivered a foreign datagram")
		case <-time.After(10 * time.Millisecond):
		}
	}
	<-got
	return errors.New("loopback multicast does not deliver on this host")
}

// delivery is one receiver's OnDeliver report.
type delivery struct {
	rank core.NodeID
	ok   bool
}

// udpGroup is one sender and its receivers as live.Nodes in this
// process, on real UDP multicast sockets.
type udpGroup struct {
	sender    *live.Node
	receivers []*live.Node
	// want is the message the receivers compare deliveries against. The
	// harness observes deliveries only here, in Config.OnDeliver: the
	// nodes' Recv queue drops the oldest of 16, so counting Recv calls
	// would hang a harness that ever fell behind.
	want       atomic.Pointer[[]byte]
	deliveries chan delivery
	tr         *tracer
	// ready is how long opening the nodes and discovery took, probe
	// excluded.
	ready time.Duration
}

// opDeadline bounds one live operation; hitting it fails the transfer.
const opDeadline = 20 * time.Second

// openUDPGroup probes multicast, opens the nodes on a fresh group and
// waits for discovery. No interface is named: the kernel's default
// route plus IP_MULTICAST_LOOP is what works across sockets on one host.
func openUDPGroup(seed uint64, pcfg core.Config, msg []byte, tr *tracer, mix *mixCounter) (*udpGroup, error) {
	group := groupAddr(seed)
	if err := probeMulticast(group); err != nil {
		return nil, fmt.Errorf("loopback multicast probe failed: %w", err)
	}
	g := &udpGroup{deliveries: make(chan delivery, 4*pcfg.NumReceivers), tr: tr}
	g.want.Store(&msg)
	var shared *trace.Buffer
	if mix != nil {
		shared = mix.buffer(true)
	}
	t0 := time.Now()
	id := tr.begin("live.NewNode")
	for r := 1; r <= pcfg.NumReceivers; r++ {
		rank := core.NodeID(r)
		n, err := live.NewNode(live.Config{Group: group, Rank: rank, Protocol: pcfg, Trace: shared,
			OnDeliver: func(_ time.Duration, payload []byte) {
				d := delivery{rank, bytes.Equal(payload, *g.want.Load())}
				select {
				case g.deliveries <- d:
				default: // an abandoned operation's leftovers; send() drains before each op
				}
			}})
		if err != nil {
			tr.end(id)
			g.close()
			return nil, err
		}
		g.receivers = append(g.receivers, n)
	}
	var err error
	g.sender, err = live.NewNode(live.Config{Group: group, Rank: core.SenderID, Protocol: pcfg, Trace: shared})
	tr.end(id)
	if err != nil {
		g.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	id = tr.begin("live.Node.WaitReady")
	err = g.sender.WaitReady(ctx, pcfg.NumReceivers)
	tr.end(id)
	if err != nil {
		g.close()
		return nil, err
	}
	g.ready = time.Since(t0)
	return g, nil
}

// send runs one transfer: Node.Send timed call to return, then (outside
// the timed part) every receiver's byte-for-byte verdict.
func (g *udpGroup) send(msg []byte) (time.Duration, error) {
	for len(g.deliveries) > 0 {
		<-g.deliveries
	}
	g.want.Store(&msg)
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	id := g.tr.begin("live.Node.Send")
	t0 := time.Now()
	err := g.sender.Send(ctx, msg)
	dur := time.Since(t0)
	g.tr.end(id)
	if err != nil {
		return dur, fmt.Errorf("send: %w", err)
	}
	seen := map[core.NodeID]bool{}
	for len(seen) < len(g.receivers) {
		select {
		case d := <-g.deliveries:
			if !d.ok {
				return dur, fmt.Errorf("receiver %d delivered different bytes", d.rank)
			}
			seen[d.rank] = true
		case <-ctx.Done():
			return dur, fmt.Errorf("%d of %d receivers delivered before the deadline", len(seen), len(g.receivers))
		}
	}
	return dur, nil
}

// close shuts every node down and waits for their goroutines. Closing
// a closed group does nothing.
func (g *udpGroup) close() {
	if g.sender == nil && g.receivers == nil {
		return
	}
	id := g.tr.begin("live.Node.Close")
	if g.sender != nil {
		g.sender.Close()
	}
	for _, n := range g.receivers {
		n.Close()
	}
	g.tr.end(id)
	g.sender, g.receivers = nil, nil
}
