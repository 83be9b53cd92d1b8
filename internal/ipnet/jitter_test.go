package ipnet

import (
	"bytes"
	"testing"
	"time"

	"rmcast/internal/ethernet"
	"rmcast/internal/sim"
)

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) sim.Time {
		r := newRig(t, 2, HostConfig{Costs: DefaultCosts(), Seed: seed, RecvBuf: 1 << 20})
		for i := 0; i < 20; i++ {
			r.hosts[0].sockets[testPort].SendTo(1, testPort, make([]byte, 2000))
		}
		return r.s.Run()
	}
	a := run(42)
	b := run(42)
	if a != b {
		t.Fatalf("same seed produced different end times: %v vs %v", a, b)
	}
	c := run(43)
	if c == a {
		t.Fatalf("different seeds produced identical end times (%v): jitter not applied", c)
	}
}

func TestJitterDoesNotReorderDatagrams(t *testing.T) {
	// At 100 Mbit/s the per-host phase + per-frame jitter (≤ 2 µs, below
	// the 6.72 µs a minimum frame takes) must preserve datagram order
	// even for minimum-size datagrams sent back to back.
	r := newRig(t, 2, HostConfig{Costs: DefaultCosts(), Seed: 9, RecvBuf: 1 << 20})
	const n = 200
	for i := 0; i < n; i++ {
		r.hosts[0].sockets[testPort].SendTo(1, testPort, []byte{byte(i), byte(i >> 8)})
	}
	r.s.Run()
	if len(r.got[1]) != n {
		t.Fatalf("delivered %d/%d", len(r.got[1]), n)
	}
	for i, dg := range r.got[1] {
		got := int(dg.Payload[0]) | int(dg.Payload[1])<<8
		if got != i {
			t.Fatalf("datagram %d arrived in position %d", got, i)
		}
	}
}

// TestJitterCanSwapFragmentsAtGigabit: at 1 Gbit/s a minimum frame
// takes 672 ns, less than the per-frame jitter, so a host may take a
// datagram's short last fragment in before the full one ahead of it.
// Reassembly does not depend on the order: every datagram arrives whole.
func TestJitterCanSwapFragmentsAtGigabit(t *testing.T) {
	s := sim.New()
	sw := ethernet.NewSwitch(s, ethernet.SwitchConfig{
		PortRate:        ethernet.Rate1Gbps,
		ForwardDelay:    time.Microsecond,
		PortPropagation: 100 * time.Nanosecond,
	})
	// A full fragment and a one-byte one.
	payload := patterned(FragPayload - UDPHeader + 1)
	got := 0
	var hosts []*Host
	for i := 0; i < 2; i++ {
		h := NewHost(s, HostConfig{Addr: Addr(i), Costs: DefaultCosts(), Seed: 3, RecvBuf: 1 << 20})
		h.SetTx(sw.ConnectPort(h.EthernetAddr(), h))
		h.Bind(testPort, func(dg *Datagram) {
			if bytes.Equal(dg.Payload, payload) {
				got++
			}
		})
		hosts = append(hosts, h)
	}
	const n = 200
	for i := 0; i < n; i++ {
		hosts[0].sockets[testPort].SendTo(1, testPort, payload)
	}
	swapped := map[uint64]bool{}
	for s.Step() {
		if rb := hosts[1].reasm; rb != nil && rb.have[1] && !rb.have[0] {
			swapped[rb.key.id] = true
		}
	}
	if len(swapped) == 0 {
		t.Fatal("no datagram's last fragment was taken in before its first")
	}
	if got != n {
		t.Fatalf("delivered %d whole datagrams of %d (%d swapped)", got, n, len(swapped))
	}
	t.Logf("%d of %d datagrams had their fragments swapped", len(swapped), n)
}

func TestJitterDesynchronizesHosts(t *testing.T) {
	// Two identical hosts receiving the same multicast must react at
	// different instants (constant per-host phase offset).
	s := sim.New()
	a := NewHost(s, HostConfig{Addr: 1, Costs: DefaultCosts(), Seed: 5})
	b := NewHost(s, HostConfig{Addr: 2, Costs: DefaultCosts(), Seed: 5})
	if a.phase == b.phase {
		t.Fatalf("hosts 1 and 2 drew identical phase offsets (%v)", a.phase)
	}
}

func TestZeroJitterIsExact(t *testing.T) {
	costs := DefaultCosts()
	costs.RecvJitterNs = 0
	run := func() sim.Time {
		r := newRig(t, 2, HostConfig{Costs: costs, RecvBuf: 1 << 20})
		r.hosts[0].sockets[testPort].SendTo(1, testPort, make([]byte, 1000))
		return r.s.Run()
	}
	if run() != run() {
		t.Fatal("zero-jitter runs differ")
	}
}

func TestCPUBusyAccounting(t *testing.T) {
	s := sim.New()
	h := NewHost(s, HostConfig{Costs: DefaultCosts()})
	h.Exec(10*time.Microsecond, func() {})
	h.Exec(30*time.Microsecond, func() {})
	h.UserCopy(1000, func() {}) // 65 ns/B → 65 µs
	s.Run()
	want := 10*time.Microsecond + 30*time.Microsecond + 65*time.Microsecond
	if got := h.Stats().CPUBusy; got != want {
		t.Fatalf("CPUBusy = %v, want %v", got, want)
	}
}

func BenchmarkUDPBlast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRig(nil, 2, HostConfig{Costs: DefaultCosts(), RecvBuf: 1 << 20})
		for j := 0; j < 100; j++ {
			r.hosts[0].sockets[testPort].SendTo(1, testPort, make([]byte, 1472))
		}
		r.s.Run()
	}
	b.SetBytes(100 * 1472)
}

func BenchmarkMulticastFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRig(nil, 16, HostConfig{Costs: DefaultCosts(), RecvBuf: 1 << 20})
		g := Group(0)
		for h := 1; h < 16; h++ {
			r.hosts[h].JoinGroup(g)
		}
		for j := 0; j < 20; j++ {
			r.hosts[0].sockets[testPort].SendTo(g, testPort, make([]byte, 8000))
		}
		r.s.Run()
	}
	b.SetBytes(20 * 8000 * 15)
}
