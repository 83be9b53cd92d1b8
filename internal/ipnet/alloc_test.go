package ipnet

import (
	"bytes"
	"testing"
	"time"

	"rmcast/internal/ethernet"
	"rmcast/internal/sim"
)

// Allocation guarantees of the pooled frame path. The rig here is
// deliberately minimal (no deep-copying of received datagrams) so the
// measured loop exercises exactly the production send/receive path.

type allocRig struct {
	s     *sim.Simulator
	sw    *ethernet.Switch
	hosts []*Host
	got   int
}

func newAllocRig(n int) *allocRig {
	r := &allocRig{s: sim.New()}
	r.sw = ethernet.NewSwitch(r.s, ethernet.SwitchConfig{
		PortRate:        ethernet.Rate100Mbps,
		ForwardDelay:    5 * time.Microsecond,
		PortPropagation: time.Microsecond,
	})
	for i := 0; i < n; i++ {
		h := NewHost(r.s, HostConfig{Addr: Addr(i), Costs: DefaultCosts(), RecvBuf: 1 << 20})
		h.SetTx(r.sw.ConnectPort(h.EthernetAddr(), h))
		h.Bind(testPort, func(dg *Datagram) { r.got++ })
		r.hosts = append(r.hosts, h)
	}
	return r
}

// TestOneDatagramSendZeroAllocs asserts the end-to-end steady state: one
// single-fragment datagram from socket send through switch forwarding to
// handler delivery allocates nothing — pooled events, pooled frames,
// pooled datagrams, payload aliased rather than copied.
func TestOneDatagramSendZeroAllocs(t *testing.T) {
	r := newAllocRig(2)
	payload := make([]byte, 1000)
	// Warm-up: grow every pool, queue and map past steady-state size.
	for i := 0; i < 64; i++ {
		r.hosts[0].sockets[testPort].SendTo(1, testPort, payload)
	}
	r.s.Run()
	r.got = 0
	allocs := testing.AllocsPerRun(200, func() {
		r.hosts[0].sockets[testPort].SendTo(1, testPort, payload)
		r.s.Run()
	})
	if allocs != 0 {
		t.Fatalf("one-datagram send allocated %.1f objects, want 0", allocs)
	}
	if r.got == 0 {
		t.Fatal("measured loop delivered nothing")
	}
}

// TestFragmentedSendSteadyStateAllocs bounds the fragmented path: a
// 50 KB datagram crosses as 34 fragments and reassembles through pooled
// buffers. The reassembly map's occasional internal rehash noise is
// tolerated, but per-fragment or per-byte allocation is not.
func TestFragmentedSendSteadyStateAllocs(t *testing.T) {
	r := newAllocRig(2)
	payload := make([]byte, 50000)
	for i := 0; i < 32; i++ {
		r.hosts[0].sockets[testPort].SendTo(1, testPort, payload)
	}
	r.s.Run()
	r.got = 0
	allocs := testing.AllocsPerRun(100, func() {
		r.hosts[0].sockets[testPort].SendTo(1, testPort, payload)
		r.s.Run()
	})
	if allocs > 2 {
		t.Fatalf("fragmented 50 KB send allocated %.1f objects per run; "+
			"per-fragment allocation is back", allocs)
	}
	if r.got == 0 {
		t.Fatal("measured loop delivered nothing")
	}
}

// TestMulticastSharesPooledBufferZeroAllocs pins the payload contract
// of a single-fragment multicast: SendTo copies the payload once, into
// a buffer from the sending host's pool; every receiver is handed
// that same buffer and none copies it; the last to finish returns it,
// so steady-state multicast allocates nothing.
func TestMulticastSharesPooledBufferZeroAllocs(t *testing.T) {
	r := newAllocRig(4)
	g := Group(0)
	var seen [4]*byte
	for i, h := range r.hosts {
		h.JoinGroup(g)
		h.sockets[testPort].Close()
		h.Bind(testPort, func(dg *Datagram) { seen[i] = &dg.Payload[0] })
	}
	payload := make([]byte, 100)
	send := func() {
		r.hosts[0].sockets[testPort].SendTo(g, testPort, payload)
		r.s.Run()
	}
	check := func(when string) {
		t.Helper()
		free := r.hosts[0].pool.payloads[payloadClass(len(payload))]
		if len(free) != 1 || free[0].refs != 0 {
			t.Fatalf("%s: sender's pool holds %d payload buffers, want the one it sent from", when, len(free))
		}
		pooled := &free[0].b[0]
		if pooled == &payload[0] {
			t.Fatalf("%s: SendTo kept the caller's slice instead of copying it", when)
		}
		for i, p := range seen[1:] {
			if p != pooled {
				t.Fatalf("%s: receiver %d was not handed the sender's pooled buffer", when, i+1)
			}
		}
	}
	send()
	check("first send")
	seen = [4]*byte{}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("one-datagram multicast to 3 receivers allocated %.1f objects, want 0", allocs)
	}
	check("steady state")
}

// TestSendToCopiesPayload: a caller may overwrite its slice the moment
// SendTo returns; receivers of a single-fragment multicast and of a
// fragmented unicast still see the bytes as they were at the call.
func TestSendToCopiesPayload(t *testing.T) {
	r := newRig(t, 3, HostConfig{Costs: DefaultCosts()})
	g := Group(0)
	for _, h := range r.hosts {
		h.JoinGroup(g)
	}
	small := bytes.Repeat([]byte("abc"), 100)
	big := bytes.Repeat([]byte("0123456789"), 500)
	want := [][]byte{append([]byte(nil), small...), append([]byte(nil), big...)}
	sock := r.hosts[0].sockets[testPort]
	sock.SendTo(g, testPort, small)
	sock.SendTo(2, testPort, big)
	for _, b := range [][]byte{small, big} {
		for i := range b {
			b[i] = 'x'
		}
	}
	r.s.Run()
	if len(r.got[1]) != 1 || !bytes.Equal(r.got[1][0].Payload, want[0]) {
		t.Fatalf("multicast receiver saw the caller's later write: %d datagrams", len(r.got[1]))
	}
	if len(r.got[2]) != 2 || !bytes.Equal(r.got[2][0].Payload, want[0]) || !bytes.Equal(r.got[2][1].Payload, want[1]) {
		t.Fatalf("receiver saw the caller's later write: %d datagrams", len(r.got[2]))
	}
}

// dropGate stands in for a stalled host's fault gate: every frame the
// host sends dies there, reported as sent.
type dropGate struct{}

func (dropGate) Send(f *ethernet.Frame) bool   { f.Release(); return true }
func (dropGate) Queued() int                   { return 0 }
func (dropGate) DrainTime(n int) time.Duration { return 0 }

// TestDiscardReturnsPayloadBuffer: on every path a datagram can die,
// each payload buffer goes back to the pool exactly once. Every host
// shares one pool, stocked with a buffer per datagram sent, so the pool
// holds that many again, each with no reference left, only if none
// leaked; release panics if a buffer is returned twice.
func TestDiscardReturnsPayloadBuffer(t *testing.T) {
	slow := DefaultCosts()
	slow.RecvSyscall = 2 * time.Millisecond
	var closedQueued bool
	for name, c := range map[string]struct {
		cfg     HostConfig
		senders []int // hosts that each send `sends` datagrams to host 1
		sends   int
		size    int
		setup   func(r *rig)
		port    int // destination port; 0 means testPort
		dropped func(r *rig) bool
	}{
		"socket-buffer overflow": {cfg: HostConfig{Costs: slow, RecvBuf: 4 << 10}, senders: []int{0}, sends: 20, size: 1000,
			dropped: func(r *rig) bool { return r.hosts[1].Stats().SocketDrops > 0 }},
		"no bound port": {cfg: HostConfig{Costs: DefaultCosts()}, senders: []int{0}, sends: 1, size: 100, port: testPort + 1,
			dropped: func(r *rig) bool { return r.hosts[1].Stats().NoPortDrops == 1 }},
		"switch-queue drop": {cfg: HostConfig{Costs: DefaultCosts()}, senders: []int{0, 2}, sends: 10, size: 1400,
			setup: func(r *rig) {
				r.sw.Port(1).SetOut(ethernet.NewTx(r.s, ethernet.TxConfig{Rate: ethernet.Rate100Mbps, QueueCap: 3000}, r.hosts[1]))
			},
			dropped: func(r *rig) bool { return findOutTx(r, 1).Stats().QueueDrops > 0 }},
		"fault-gate drop": {cfg: HostConfig{Costs: DefaultCosts()}, senders: []int{0}, sends: 3, size: 5000,
			setup:   func(r *rig) { r.hosts[0].SetTx(dropGate{}) },
			dropped: func(r *rig) bool { return r.hosts[0].Stats().SentDatagrams == 3 && len(r.got[1]) == 0 }},
		"reassembly timeout": {cfg: HostConfig{Costs: DefaultCosts(), ReasmTimeout: 50 * time.Millisecond}, senders: []int{0}, sends: 1, size: 10000,
			setup: func(r *rig) {
				n := 0
				findOutTx(r, 1).DropFn = func(*ethernet.Frame) bool { n++; return n == 3 }
			},
			dropped: func(r *rig) bool { return r.hosts[1].Stats().ReasmDrops == 1 }},
		"socket closed with datagrams queued": {cfg: HostConfig{Costs: slow}, senders: []int{0}, sends: 5, size: 100,
			setup: func(r *rig) {
				var sock *Socket
				sock = r.hosts[1].BindBuf(testPort+2, 0, func(*Datagram) {
					if closedQueued = len(sock.queue) > 0; closedQueued {
						sock.Close()
					}
				})
			},
			port:    testPort + 2,
			dropped: func(*rig) bool { return closedQueued }},
	} {
		pool := NewPool()
		c.cfg.Pool = pool
		r := newRig(t, 3, c.cfg)
		if c.setup != nil {
			c.setup(r)
		}
		port := c.port
		if port == 0 {
			port = testPort
		}
		sent, class := len(c.senders)*c.sends, payloadClass(c.size)
		for i := 0; i < sent; i++ {
			pool.payloads[class] = append(pool.payloads[class], &payloadBuf{owner: pool, class: class})
		}
		for i := 0; i < c.sends; i++ {
			for _, s := range c.senders {
				r.hosts[s].sockets[testPort].SendTo(1, port, make([]byte, c.size))
			}
		}
		r.s.Run()
		if !c.dropped(r) {
			t.Fatalf("%s: the scenario dropped nothing", name)
		}
		free := pool.payloads[class]
		if len(free) != sent || len(pool.payloads[1-class]) != 0 {
			t.Fatalf("%s: the pool holds %d+%d payload buffers after %d sends", name, len(free), len(pool.payloads[1-class]), sent)
		}
		for _, pb := range free {
			if pb.refs != 0 {
				t.Fatalf("%s: the pool holds a payload buffer with %d references", name, pb.refs)
			}
		}
	}
}

// BenchmarkFragmentation measures a full 50 KB fragmentation +
// reassembly round trip between two hosts.
func BenchmarkFragmentation(b *testing.B) {
	r := newAllocRig(2)
	payload := make([]byte, 50000)
	r.hosts[0].sockets[testPort].SendTo(1, testPort, payload)
	r.s.Run()
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.hosts[0].sockets[testPort].SendTo(1, testPort, payload)
		r.s.Run()
	}
	if r.got != b.N+1 {
		b.Fatalf("delivered %d datagrams, want %d", r.got, b.N+1)
	}
}
