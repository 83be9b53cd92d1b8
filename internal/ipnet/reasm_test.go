package ipnet

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"rmcast/internal/ethernet"
	"rmcast/internal/sim"
)

// patterned returns n bytes no two fragments of which are alike.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestMulticastGroupAliasesSenderBuffer: a 6-fragment multicast to 3
// hosts is delivered to each with the sender's payload buffer as its
// payload — equal bytes, no reassembly copy — and after the last read
// the sender's pool holds that buffer with no reference left.
func TestMulticastGroupAliasesSenderBuffer(t *testing.T) {
	const size = 8000
	if n := FragmentCount(size); n != 6 {
		t.Fatalf("%d bytes make %d fragments, want 6", size, n)
	}
	r := newAllocRig(4)
	g := Group(0)
	payload := patterned(size)
	var seen [4]*byte
	for i, h := range r.hosts {
		h.JoinGroup(g)
		h.sockets[testPort].Close()
		h.Bind(testPort, func(dg *Datagram) {
			if !bytes.Equal(dg.Payload, payload) {
				t.Errorf("host %d read a corrupt datagram", i)
			}
			seen[i] = &dg.Payload[0]
		})
	}
	r.hosts[0].sockets[testPort].SendTo(g, testPort, payload)
	r.s.Run()
	free := r.hosts[0].pool.payloads[payloadClass(size)]
	if len(free) != 1 || referenced(free[0]) {
		t.Fatalf("sender's pool holds %d payload buffers, want the one it sent from, unreferenced", len(free))
	}
	for i, p := range seen[1:] {
		if p != &free[0].b[0] {
			t.Fatalf("receiver %d was not handed the sender's buffer", i+1)
		}
		for _, rb := range r.hosts[i+1].pool.reasms {
			if rb.buf != nil || rb.pb != nil {
				t.Fatalf("receiver %d's fragment group kept a copy or a reference", i+1)
			}
		}
	}
}

// cloneAt hands its host the sharded engine's copy of some fragments
// (index, or every fragment when index < 0) instead of the pooled frame.
type cloneAt struct {
	h     *Host
	index int
}

func (c cloneAt) RecvFrame(f *ethernet.Frame) {
	if c.index < 0 || f.Payload.(*fragment).index == c.index {
		cp := CloneFrame(f)
		f.Release()
		f = cp
	}
	c.h.RecvFrame(f)
}

// TestClonedFragmentMakesGroupCopy: a group that meets a cloned fragment
// — first, in the middle, last, or throughout — copies what it holds and
// delivers the same bytes from its own buffer, and every payload buffer
// goes back to the pool unreferenced.
func TestClonedFragmentMakesGroupCopy(t *testing.T) {
	const size = 8000
	for _, index := range []int{-1, 0, 2, 5} {
		pool := new(Pool)
		r := newRig(t, 2, HostConfig{Costs: DefaultCosts(), Pool: pool})
		r.sw.Port(1).SetOut(ethernet.NewTx(r.s, ethernet.TxConfig{Rate: ethernet.Rate100Mbps, Propagation: time.Microsecond},
			cloneAt{h: r.hosts[1], index: index}))
		payload := patterned(size)
		r.hosts[0].sockets[testPort].SendTo(1, testPort, payload)
		r.s.Run()
		if len(r.got[1]) != 1 || !bytes.Equal(r.got[1][0].Payload, payload) {
			t.Fatalf("clone at %d: delivered %d datagrams, or corrupt bytes", index, len(r.got[1]))
		}
		if len(pool.reasms) != 1 || cap(pool.reasms[0].buf) < size || pool.reasms[0].pb != nil {
			t.Fatalf("clone at %d: the group did not reassemble by copy", index)
		}
		for _, pb := range pool.payloads[payloadClass(size)] {
			if referenced(pb) {
				t.Fatalf("clone at %d: the pool holds a payload buffer with references", index)
			}
		}
		if n := len(pool.payloads[payloadClass(size)]); n != 1 {
			t.Fatalf("clone at %d: the pool holds %d payload buffers after one send", index, n)
		}
	}
}

// TestSocketQueueReadsInOrder: a socket whose queue grows deep while its
// reads are charged hands every datagram to the handler once, in
// arrival order and charges each read once, while its ring wraps
// around and grows wrapped.
func TestSocketQueueReadsInOrder(t *testing.T) {
	slow := DefaultCosts()
	slow.RecvSyscall = time.Millisecond
	r := newRig(t, 2, HostConfig{Costs: slow, RecvBuf: 1 << 20})
	const n = 300
	for i := 0; i < n; i++ {
		r.hosts[0].sockets[testPort].SendTo(1, testPort, []byte{byte(i), byte(i >> 8)})
	}
	sock := r.hosts[1].sockets[testPort]
	deepest, wrapped := 0, false
	for r.s.Step() {
		deepest = max(deepest, sock.n)
		wrapped = wrapped || sock.head+sock.n > len(sock.queue)
	}
	if deepest < n/2 || !wrapped {
		t.Fatalf("the socket queue reached only %d datagrams (wrapped: %v)", deepest, wrapped)
	}
	if len(r.got[1]) != n {
		t.Fatalf("read %d datagrams, want %d", len(r.got[1]), n)
	}
	for i, dg := range r.got[1] {
		if int(dg.Payload[0])|int(dg.Payload[1])<<8 != i {
			t.Fatalf("read %d in place %d", int(dg.Payload[0])|int(dg.Payload[1])<<8, i)
		}
	}
	if sock.n != 0 || sock.queued != 0 {
		t.Fatalf("drained socket keeps %d datagrams, %d bytes", sock.n, sock.queued)
	}
	// One read, charged once, per datagram.
	if got, want := r.hosts[1].Stats().CPUBusy, n*(slow.FragOverhead+slow.RecvSyscall+PerByte(2, slow.RecvPerByteNs)); got != want {
		t.Fatalf("receiver CPU busy %v, want %v", got, want)
	}
}

// TestHostAndSocketSize: a run makes a host and a socket per node (1 024
// of each per sim_scale transfer), so a Host stays in the 320-byte size
// class and a Socket in the 80-byte one.
func TestHostAndSocketSize(t *testing.T) {
	if n := unsafe.Sizeof(Host{}); n > 320 {
		t.Fatalf("Host is %d bytes, want at most 320", n)
	}
	if n := unsafe.Sizeof(Socket{}); n > 80 {
		t.Fatalf("Socket is %d bytes, want at most 80", n)
	}
}

// frameTrap is a transmitter that keeps every frame it is handed.
type frameTrap struct{ frames []*ethernet.Frame }

func (t *frameTrap) Send(f *ethernet.Frame) bool { t.frames = append(t.frames, f); return true }
func (*frameTrap) Queued() int                   { return 0 }
func (*frameTrap) DrainTime(int) time.Duration   { return 0 }

// trapPair is a sender whose frames are trapped and an idle receiver to
// which the test hands them.
type trapPair struct {
	s        *sim.Simulator
	from, to *Host
	trap     frameTrap
}

func newTrapPair(costs CostModel) *trapPair {
	p := &trapPair{s: sim.New()}
	p.from = NewHost(p.s, HostConfig{Addr: 0, Costs: costs})
	p.to = NewHost(p.s, HostConfig{Addr: 1, Costs: costs, RecvBuf: 1 << 20})
	p.from.SetTx(&p.trap)
	p.from.Bind(testPort, func(*Datagram) {})
	return p
}

// send has the sender send payload to port on the receiver and returns
// how many events the receiver fires taking in its fragments, handed to
// it in one burst.
func (p *trapPair) send(port int, payload []byte) uint64 {
	p.from.sockets[testPort].SendTo(1, port, payload)
	p.s.Run()
	fired := p.s.Fired()
	for _, f := range p.trap.frames {
		p.to.RecvFrame(f)
	}
	p.trap.frames = p.trap.frames[:0]
	p.s.Run()
	return p.s.Fired() - fired
}

// TestFragmentSettlesAtBooking: an idle host takes an N-fragment
// datagram in with N+1 events under receive jitter (N arrivals, then
// the input of the fragment that completes it) and with 1 without; the
// first N-1 fragments are taken in when their CPU charge is booked.
// The datagram goes to an unbound port, so reading it costs nothing.
func TestFragmentSettlesAtBooking(t *testing.T) {
	for _, size := range []int{8000, 50000} {
		for _, jitter := range []bool{true, false} {
			costs := DefaultCosts()
			if !jitter {
				costs.RecvJitterNs = 0
			}
			p := newTrapPair(costs)
			n := FragmentCount(size)
			want := uint64(1)
			if jitter {
				want += uint64(n)
			}
			if got := p.send(testPort+1, make([]byte, size)); got != want {
				t.Errorf("%d fragments, jitter %v: the receiver fired %d events, want %d", n, jitter, got, want)
			}
			st := p.to.Stats()
			if st.NoPortDrops != 1 || st.CPUBusy != time.Duration(n)*costs.FragOverhead {
				t.Errorf("%d fragments, jitter %v: %d datagrams taken in, CPU busy %v", n, jitter, st.NoPortDrops, st.CPUBusy)
			}
		}
	}
}

// TestFragmentBookingZeroAllocs: once warm, a fragmented datagram taken
// in — fragments settled at booking, the last one's input event,
// reassembly, delivery and the read — allocates nothing, with receive
// jitter and without.
func TestFragmentBookingZeroAllocs(t *testing.T) {
	for _, jitter := range []bool{true, false} {
		costs := DefaultCosts()
		if !jitter {
			costs.RecvJitterNs = 0
		}
		p := newTrapPair(costs)
		got := 0
		p.to.Bind(testPort, func(*Datagram) { got++ })
		payload := make([]byte, 50000)
		for i := 0; i < 8; i++ {
			p.send(testPort, payload)
		}
		allocs := testing.AllocsPerRun(100, func() { p.send(testPort, payload) })
		if allocs != 0 {
			t.Errorf("jitter %v: a 34-fragment datagram taken in allocated %.1f objects, want 0", jitter, allocs)
		}
		if got != 8+101 {
			t.Errorf("jitter %v: read %d datagrams, want %d", jitter, got, 8+101)
		}
	}
}
