package ethernet

import (
	"testing"
	"time"

	"rmcast/internal/sim"
)

// testNet wires n hosts to one switch and returns their transmitters and
// collectors.
func testNet(s *sim.Simulator, n int, cfg SwitchConfig) (*Switch, []*Tx, []*collector) {
	sw := NewSwitch(s, cfg)
	txs := make([]*Tx, n)
	cols := make([]*collector, n)
	for i := 0; i < n; i++ {
		cols[i] = &collector{s: s}
		txs[i] = sw.ConnectPort(Addr(i), cols[i])
	}
	return sw, txs, cols
}

func TestSwitchUnicastForwarding(t *testing.T) {
	s := sim.New()
	sw, txs, cols := testNet(s, 3, SwitchConfig{PortRate: Rate100Mbps})
	txs[0].Send(&Frame{Src: 0, Dst: 2, WireBytes: 1000})
	s.Run()
	if len(cols[2].frames) != 1 {
		t.Fatalf("host 2 got %d frames, want 1", len(cols[2].frames))
	}
	if len(cols[1].frames) != 0 {
		t.Fatalf("host 1 got %d frames, want 0", len(cols[1].frames))
	}
	if len(cols[0].frames) != 0 {
		t.Fatalf("sender got its own frame back")
	}
	if st := sw.Stats(); st.Forwarded != 1 || st.Flooded != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSwitchStoreAndForwardLatency(t *testing.T) {
	s := sim.New()
	fwd := 5 * time.Microsecond
	_, txs, cols := testNet(s, 2, SwitchConfig{PortRate: Rate100Mbps, ForwardDelay: fwd})
	txs[0].Send(&Frame{Src: 0, Dst: 1, WireBytes: 1250}) // 100 µs per hop
	s.Run()
	// host→switch 100 µs, forward 5 µs, switch→host 100 µs.
	want := 205 * time.Microsecond
	if cols[1].times[0] != want {
		t.Errorf("arrival %v, want %v", cols[1].times[0], want)
	}
}

func TestSwitchMulticastFloods(t *testing.T) {
	s := sim.New()
	_, txs, cols := testNet(s, 4, SwitchConfig{PortRate: Rate100Mbps})
	txs[1].Send(&Frame{Src: 1, Dst: Broadcast, Multicast: true, WireBytes: 500})
	s.Run()
	for i, c := range cols {
		want := 1
		if i == 1 {
			want = 0 // no echo to sender
		}
		if len(c.frames) != want {
			t.Errorf("host %d got %d frames, want %d", i, len(c.frames), want)
		}
	}
}

func TestSwitchUnknownUnicastFloods(t *testing.T) {
	s := sim.New()
	sw, txs, cols := testNet(s, 3, SwitchConfig{PortRate: Rate100Mbps})
	txs[0].Send(&Frame{Src: 0, Dst: 99, WireBytes: 500})
	s.Run()
	if len(cols[1].frames) != 1 || len(cols[2].frames) != 1 {
		t.Error("unknown unicast was not flooded")
	}
	if st := sw.Stats(); st.Flooded != 1 {
		t.Errorf("Flooded = %d, want 1", st.Flooded)
	}
}

func TestSwitchOutputQueueDrop(t *testing.T) {
	s := sim.New()
	// Tiny output queues: blasting ten MTU frames from two hosts into one
	// port must overflow it.
	sw, txs, cols := testNet(s, 3, SwitchConfig{
		PortRate:     Rate100Mbps,
		PortQueueCap: 2 * 1538,
	})
	for i := 0; i < 10; i++ {
		txs[0].Send(&Frame{Src: 0, Dst: 2, WireBytes: 1538})
		txs[1].Send(&Frame{Src: 1, Dst: 2, WireBytes: 1538})
	}
	s.Run()
	st := sw.Stats()
	if st.QueueDrops == 0 {
		t.Fatal("no queue drops despite 2:1 overload into a tiny queue")
	}
	if got := len(cols[2].frames); got+int(st.QueueDrops) != 20 {
		t.Errorf("delivered %d + dropped %d != 20", got, st.QueueDrops)
	}
}

func TestTwoSwitchTopology(t *testing.T) {
	// The paper's Figure 7: hosts 0..15 on switch A, 16..30 on switch B.
	s := sim.New()
	swA := NewSwitch(s, SwitchConfig{Name: "A", PortRate: Rate100Mbps})
	swB := NewSwitch(s, SwitchConfig{Name: "B", PortRate: Rate100Mbps})
	const nA, nB = 3, 3
	txs := make([]*Tx, nA+nB)
	cols := make([]*collector, nA+nB)
	var aAddrs, bAddrs []Addr
	for i := 0; i < nA; i++ {
		cols[i] = &collector{s: s}
		txs[i] = swA.ConnectPort(Addr(i), cols[i])
		aAddrs = append(aAddrs, Addr(i))
	}
	for i := nA; i < nA+nB; i++ {
		cols[i] = &collector{s: s}
		txs[i] = swB.ConnectPort(Addr(i), cols[i])
		bAddrs = append(bAddrs, Addr(i))
	}
	swA.ConnectSwitch(swB, aAddrs, bAddrs)

	// Cross-switch unicast.
	txs[0].Send(&Frame{Src: 0, Dst: 4, WireBytes: 1000})
	// Same-switch unicast.
	txs[1].Send(&Frame{Src: 1, Dst: 2, WireBytes: 1000})
	// Multicast from switch A reaches everyone once.
	txs[0].Send(&Frame{Src: 0, Dst: Broadcast, Multicast: true, WireBytes: 500})
	s.Run()

	if len(cols[4].frames) != 2 { // unicast + multicast
		t.Errorf("host 4 got %d frames, want 2", len(cols[4].frames))
	}
	if len(cols[2].frames) != 2 { // unicast + multicast
		t.Errorf("host 2 got %d frames, want 2", len(cols[2].frames))
	}
	for i := 1; i < nA+nB; i++ {
		mc := 0
		for _, f := range cols[i].frames {
			if f.Multicast {
				mc++
			}
		}
		if mc != 1 {
			t.Errorf("host %d saw multicast %d times, want exactly once", i, mc)
		}
	}
}

// TestSwitchLearnBroadcastPanics: Broadcast, and any other negative
// address, has no place in the dense table.
func TestSwitchLearnBroadcastPanics(t *testing.T) {
	for _, a := range []Addr{Broadcast, -2} {
		func() {
			s := sim.New()
			sw := NewSwitch(s, SwitchConfig{})
			defer func() {
				if recover() == nil {
					t.Errorf("Learn(%d) did not panic", a)
				}
			}()
			sw.Learn(a, sw.AddPort())
		}()
	}
}

// TestSwitchUnlearnedUnicastFloods: a unicast to an address inside the
// table that was never learned, to one past its end, and to Broadcast
// without the multicast flag each floods to exactly the ports a
// multicast reaches, counted as a flood and never as a forward.
func TestSwitchUnlearnedUnicastFloods(t *testing.T) {
	s := sim.New()
	sw := NewSwitch(s, SwitchConfig{PortRate: Rate100Mbps})
	addrs := []Addr{0, 1, 2, 6} // 3..5 fall inside the table, unlearned
	txs := make([]*Tx, len(addrs))
	cols := make([]*collector, len(addrs))
	for i, a := range addrs {
		cols[i] = &collector{s: s}
		txs[i] = sw.ConnectPort(a, cols[i])
	}
	for _, dst := range []Addr{Broadcast, 4, 7, 99} {
		multicast := dst == Broadcast
		for _, c := range cols {
			c.frames = c.frames[:0]
		}
		before := sw.Stats()
		txs[1].Send(&Frame{Src: 1, Dst: dst, Multicast: multicast, WireBytes: 500})
		s.Run()
		for i, c := range cols {
			want := 1
			if i == 1 {
				want = 0 // never back out of the ingress
			}
			if len(c.frames) != want {
				t.Errorf("dst %d: port %d got %d frames, want %d", dst, i, len(c.frames), want)
			}
		}
		st := sw.Stats()
		if st.Flooded != before.Flooded+1 || st.Forwarded != before.Forwarded {
			t.Errorf("dst %d: stats went %+v -> %+v, want one more flood and no forward", dst, before, st)
		}
	}
}

// TestSwitchRelearnMovesAddress: a second Learn of an address sends its
// unicast out of the new port only.
func TestSwitchRelearnMovesAddress(t *testing.T) {
	s := sim.New()
	sw, txs, cols := testNet(s, 3, SwitchConfig{PortRate: Rate100Mbps})
	sw.Learn(2, sw.Port(1))
	txs[0].Send(&Frame{Src: 0, Dst: 2, WireBytes: 500})
	s.Run()
	if len(cols[1].frames) != 1 || len(cols[2].frames) != 0 {
		t.Fatalf("after relearning 2 on port 1: port 1 got %d frames, port 2 got %d; want 1 and 0",
			len(cols[1].frames), len(cols[2].frames))
	}
	if st := sw.Stats(); st.Forwarded != 1 || st.Flooded != 0 {
		t.Errorf("stats = %+v, want one forward", st)
	}
}

// TestSwitchUnicastForwardZeroAllocs pins the learned-unicast path, a
// table index and one egress Send, at zero allocations once the
// transmit queues are warm.
func TestSwitchUnicastForwardZeroAllocs(t *testing.T) {
	s := sim.New()
	sw := NewSwitch(s, SwitchConfig{PortRate: Rate100Mbps, ForwardDelay: 5 * time.Microsecond})
	got := 0
	sink := ReceiverFunc(func(f *Frame) { got++; f.Release() })
	const ports = 32
	// Highest address first, so the first Learn sizes the table.
	txs := make([]*Tx, ports)
	for a := ports - 1; a >= 0; a-- {
		txs[a] = sw.ConnectPort(Addr(a), sink)
	}
	frames := make([]Frame, ports-1)
	send := func() {
		for i := range frames {
			frames[i] = Frame{Src: 0, Dst: Addr(i + 1), WireBytes: 1538}
			txs[0].Send(&frames[i])
		}
		s.Run()
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("forwarding %d learned unicasts allocated %.2f objects per batch; want 0", len(frames), allocs)
	}
	if st := sw.Stats(); st.Flooded != 0 || got != int(st.Forwarded) || got == 0 {
		t.Fatalf("stats %+v after %d deliveries; every frame should be forwarded", st, got)
	}
}
