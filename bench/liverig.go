package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/live"
	"rmcast/internal/packet"
	"rmcast/internal/rng"
)

// liveRig measures the live rungs at live_udp_bulk's configuration,
// whatever workload the pass belongs to: the node stack over the
// loopback net (no kernel), the same transfer over real sockets, a bare
// socket blast for the ceiling, and what opening and closing nodes
// costs. lossy, when non-nil, is the sender counters of the workload's
// own lossy loopback run (live_loop); otherwise one lossy scenario at
// this configuration supplies the repair counts. It returns the sender
// counters of the lossless loopback run.
func liveRig(r *rig, lossy []core.SenderStats) (lossless core.SenderStats, err error) {
	pcfg := udpBulkConfig()
	size := r.p.size(4<<20, 256<<10)
	msg := seededBytes(r.p.seed, size)
	pkts := float64(pcfg.PacketCount(size))

	loopOnce := func(net live.LoopConfig) (*live.LoopResult, time.Duration, error) {
		return runLoop(r.tr, live.LoopScenario{Net: net, Protocol: pcfg, MsgSize: size})
	}
	loopWalls, err := sampleFor(r.budget, r.p.size(3, 1), func() (time.Duration, error) {
		res, wall, err := loopOnce(live.LoopConfig{Seed: r.p.seed})
		if err == nil {
			lossless = res.SenderStats
		}
		return wall, err
	})
	if err != nil {
		return lossless, err
	}
	loopNs := median(loopWalls) / pkts
	if lossy == nil {
		res, _, err := loopOnce(live.LoopConfig{Seed: rng.Mix(r.p.seed, 0x6C6F7373), // "loss"
			Jitter: 50 * time.Microsecond, LossRate: 0.01})
		if err != nil {
			return lossless, err
		}
		lossy = []core.SenderStats{res.SenderStats}
	}
	var data, retrans, timeouts float64
	for _, s := range lossy {
		data += float64(s.DataSent)
		retrans += float64(s.Retransmissions)
		timeouts += float64(s.Timeouts)
	}
	r.putExact("live.retrans_per_data", ratio(retrans, data), "ratio")
	r.putExact("live.timeouts", timeouts/float64(len(lossy)), "count")

	g, err := openUDPGroup(r.p.seed, pcfg, msg, r.tr, nil)
	if err != nil {
		return lossless, err
	}
	defer g.close()
	bulk := func() (time.Duration, error) { return g.send(msg) }
	if _, err := sampleFor(0, r.p.size(2, 1), bulk); err != nil {
		return lossless, fmt.Errorf("live rig warm-up: %w", err)
	}
	mem := markMem()
	sends, err := sampleFor(2*r.budget, r.p.size(3, 1), bulk)
	if err != nil {
		return lossless, fmt.Errorf("live rig: %w", err)
	}
	mallocs, bytes := mem.since()
	udpNs := median(sends) / pkts
	goodput := float64(size) * 8 / 1e6 / (median(sends) / 1e9)

	small := msg[:1024]
	rtts, err := sampleFor(r.budget, r.p.size(10, 1), func() (time.Duration, error) { return g.send(small) })
	if err != nil {
		return lossless, fmt.Errorf("live rig, 1 KiB message: %w", err)
	}
	snap := g.sender.Metrics()
	first := float64(snap.Sent[packet.TypeData.String()]) - float64(snap.Retransmissions)
	t0 := time.Now()
	g.close()
	closeWall := time.Since(t0)

	raw, err := rawUDPBlast(r.p.seed, pcfg.PacketSize+packet.HeaderLen, pcfg.NumReceivers, r.budget)
	if err != nil {
		return lossless, err
	}

	total := float64(len(sends)) * pkts
	r.m.put("live.loop_us_per_pkt", loopNs/1e3, "us")
	r.m.put("live.udp_us_per_pkt", udpNs/1e3, "us")
	r.m.put("live.kernel_handoff_share", 1-ratio(loopNs, udpNs), "ratio")
	r.m.put("live.raw_udp_mbps", raw, "Mbit/s")
	r.m.put("live.goodput_share_of_raw", ratio(goodput, raw), "ratio")
	r.m.put("live.allocs_per_pkt", mallocs/total, "count")
	r.m.put("live.alloc_bytes_per_pkt", bytes/total, "B")
	r.m.put("live.udp_retrans_per_data", ratio(float64(snap.Retransmissions), first), "ratio")
	r.m.put("live.ready_ms", ms(g.ready), "ms")
	r.m.put("live.close_ms", ms(closeWall), "ms")
	r.m.put("live.small_rtt_us", median(rtts)/1e3, "us")
	r.d.put("live.udp_goodput_mbps", goodput, "Mbit/s")
	return lossless, nil
}

// rawUDPBlast is the ceiling under the live number: the benchmark's own
// sockets, one writer multicasting datagrams of the workload's size as
// fast as the kernel takes them for d, the receivers counting what
// arrives. No protocol, no flow control, so the kernel drops what the
// readers cannot keep up with; the result is the payload rate the
// slowest receiver saw, in Mbit/s.
func rawUDPBlast(seed uint64, datagram, receivers int, d time.Duration) (float64, error) {
	gaddr, err := net.ResolveUDPAddr("udp4", groupAddr(seed))
	if err != nil {
		return 0, err
	}
	send, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return 0, err
	}
	defer send.Close()
	var conns []*net.UDPConn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	got := make([]atomic.Int64, receivers)
	var wg sync.WaitGroup
	for i := 0; i < receivers; i++ {
		c, err := net.ListenMulticastUDP("udp4", nil, gaddr)
		if err != nil {
			return 0, err
		}
		_ = c.SetReadBuffer(1 << 20) // best effort, as live's transport sizes its sockets
		conns = append(conns, c)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 65536)
			for {
				n, _, err := c.ReadFromUDP(buf)
				if err != nil {
					return // deadline or close: the blast is over
				}
				got[i].Add(int64(n))
			}
		}(i)
	}
	payload := make([]byte, datagram)
	t0 := time.Now()
	for burst := 0; burst == 0 || time.Since(t0) < d; burst++ {
		for k := 0; k < 32; k++ {
			if _, err := send.WriteToUDP(payload, gaddr); err != nil {
				return 0, fmt.Errorf("raw blast: %w", err)
			}
		}
	}
	wall := time.Since(t0)
	// Let what is already queued drain, then stop the readers.
	for _, c := range conns {
		if err := c.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			return 0, err
		}
	}
	wg.Wait()
	min := got[0].Load()
	for i := range got {
		if v := got[i].Load(); v < min {
			min = v
		}
	}
	if min == 0 {
		return 0, errors.New("raw blast: a receiver heard nothing")
	}
	return float64(min) * 8 / 1e6 / wall.Seconds(), nil
}
