package ipnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"rmcast/internal/ethernet"
	"rmcast/internal/sim"
)

// twice hands its host one frame, the nth it sees, a second time, delay
// after the first.
type twice struct {
	h     *Host
	nth   int
	seen  int
	delay time.Duration
}

func (d *twice) RecvFrame(f *ethernet.Frame) {
	if d.seen++; d.seen == d.nth {
		f.Retain()
		d.h.sim.AfterFunc(d.delay, redeliver, d.h, f)
	}
	d.h.RecvFrame(f)
}

func redeliver(a, b any) { a.(*Host).RecvFrame(b.(*ethernet.Frame)) }

// reasmSpec runs the reassembly specification scenario and returns its
// digest and the hosts' counters. Two senders multicast 8 000- and
// 50 000-byte datagrams (6 and 34 fragments), alternating sizes and
// interleaving on the wire, to three receivers. Every receiver reads at
// 2 ms a datagram, so its CPU backlogs across many fragment arrivals;
// its socket buffer holds one 50 000-byte datagram, so a datagram
// completed while another is still being read finds no room; and it
// drops a group timeout after its first fragment was taken in, which at
// 5 or 6 ms makes groups expire while later fragments are charged but
// not yet taken in.
// Receiver 2 is handed one middle fragment a second time, 900 µs later,
// after its group has completed, so it opens a group that can only
// expire; receiver 3's link loses every 23rd frame; receiver 4 gets
// every fragment as a sharded engine's clone, so its groups reassemble
// by copy. The digest covers every delivery (time, host, source, IP ID,
// length, payload hash) and every host's counters.
func reasmSpec(jitter bool, timeout time.Duration) (string, []HostStats) {
	costs := DefaultCosts()
	costs.RecvSyscall = 2 * time.Millisecond
	if !jitter {
		costs.RecvJitterNs = 0
	}
	s := sim.New()
	sw := ethernet.NewSwitch(s, ethernet.SwitchConfig{
		PortRate:        ethernet.Rate100Mbps,
		ForwardDelay:    5 * time.Microsecond,
		PortPropagation: time.Microsecond,
		PortQueueCap:    256 * 1024,
	})
	g := Group(0)
	sum := sha256.New()
	var hosts []*Host
	for i := 0; i < 5; i++ {
		h := NewHost(s, HostConfig{
			Addr: Addr(i), Costs: costs, RecvBuf: 50000,
			ReasmTimeout: timeout, Seed: 7,
		})
		h.SetTx(sw.ConnectPort(h.EthernetAddr(), h))
		h.Bind(testPort, func(dg *Datagram) {
			ph := fnv.New64a()
			ph.Write(dg.Payload)
			fmt.Fprintf(sum, "%d host %d src %d id %d len %d payload %x\n",
				s.Now(), i, dg.Src, binary.LittleEndian.Uint32(dg.Payload), len(dg.Payload), ph.Sum64())
		})
		if i >= 2 {
			h.JoinGroup(g)
		}
		hosts = append(hosts, h)
	}
	link := ethernet.TxConfig{Rate: ethernet.Rate100Mbps, Propagation: time.Microsecond, QueueCap: 256 * 1024}
	sw.Port(2).SetOut(ethernet.NewTx(s, link, &twice{h: hosts[2], nth: 63, delay: 900 * time.Microsecond}))
	lossy := ethernet.NewTx(s, link, hosts[3])
	frames := 0
	lossy.DropFn = func(*ethernet.Frame) bool { frames++; return frames%23 == 0 }
	sw.Port(3).SetOut(lossy)
	sw.Port(4).SetOut(ethernet.NewTx(s, link, cloneAt{h: hosts[4], index: -1}))

	for k := 0; k < 10; k++ {
		for src := 0; src < 2; src++ {
			size := 8000
			if (k+src)%2 == 1 {
				size = 50000
			}
			// The first four bytes are the datagram's IP ID: each
			// sender numbers its datagrams from 0.
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i*7 + src*31 + k)
			}
			binary.LittleEndian.PutUint32(payload, uint32(k))
			sock := hosts[src].sockets[testPort]
			s.At(time.Duration(3*k)*time.Millisecond+time.Duration(700*src)*time.Microsecond, func() {
				sock.SendTo(g, testPort, payload)
			})
		}
	}
	s.Run()
	var stats []HostStats
	for _, h := range hosts {
		fmt.Fprintf(sum, "%+v\n", h.Stats())
		stats = append(stats, h.Stats())
	}
	return hex.EncodeToString(sum.Sum(nil)), stats
}

// TestReassemblySpecDigest pins what reassembly does under backlog,
// expiry, loss, duplication and copying, with receive jitter and
// without: when each datagram is delivered, with which bytes, and what
// every host counted. The digests were recorded from the model in
// which every fragment is taken in by an event at the instant its CPU
// charge ends; taking a fragment in at once must not move them.
func TestReassemblySpecDigest(t *testing.T) {
	for _, tc := range []struct {
		jitter  bool
		timeout time.Duration
		want    string
	}{
		{true, 6 * time.Millisecond, "640cf5e5742e1820dfe01b8759ce33ccf58330d8c3436cbf4449ac88aa820d74"},
		{false, 6 * time.Millisecond, "06af3fab2e7171404d757c3d32cda70c02db5b43b9fa4608c42c25e9481b6cdb"},
		{true, 5 * time.Millisecond, "3bb3f2bf69761cefa23fb72974bd52a37b9ff4dfc560cc1b3e346c1c559889ce"},
		{false, 5 * time.Millisecond, "1214bc24ebbbf5f16880e965b0297d4427fa1d278a90c6017ee95c506ce52199"},
	} {
		got, stats := reasmSpec(tc.jitter, tc.timeout)
		for i, st := range stats[2:] {
			t.Logf("jitter %v, timeout %v: receiver %d: %+v", tc.jitter, tc.timeout, i+2, st)
			if st.RecvDatagrams == 0 || st.ReasmDrops == 0 {
				t.Errorf("jitter %v, timeout %v: receiver %d read %d datagrams and dropped %d groups; the scenario must do both",
					tc.jitter, tc.timeout, i+2, st.RecvDatagrams, st.ReasmDrops)
			}
		}
		if got != tc.want {
			t.Errorf("jitter %v, timeout %v: digest %s, want %s", tc.jitter, tc.timeout, got, tc.want)
		}
	}
}
