package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/ethernet"
	"rmcast/internal/ipnet"
	"rmcast/internal/metrics"
	"rmcast/internal/packet"
	"rmcast/internal/sim"
	"rmcast/internal/window"
	"rmcast/internal/wire"
)

// This file is the cost ladder: one benchmark-owned driver per layer,
// each calling the layer's public functions in isolation and timing
// them from outside. Drivers that take a packet mix replay the one the
// workload's own traced run produced (rig.mix), so "packet.encode_ns"
// on sim_bulk is the cost of encoding sim_bulk's packets.

// rig is what every driver shares.
type rig struct {
	p      params
	budget time.Duration // wall time one timed loop may take
	tr     *tracer
	m      metricSet // declared per-layer metrics
	d      metricSet // detail rows: per-protocol splits, model terms
	exact  map[string]bool
	mix    *mixCounter
	sims   []simTransfer
	// sink receives the results of measured calls, so the compiler cannot
	// discard them; it lives here, not in a package variable, because the
	// tests run several rigs at once.
	sink struct {
		bytes []byte
		pkt   *packet.Packet
		n     int
	}
}

// time runs one timed loop at the rig's budget.
func (r *rig) time(units int, batch func()) unitCost {
	return timeUnits(r.budget, r.p.smoke, units, batch)
}

// putExact reports a count that must repeat bit-for-bit at a seed.
func (r *rig) putExact(name string, v float64, unit string) {
	r.m.put(name, v, unit)
	r.exact[name] = true
}

// emit is the packet handler the codec drivers decode into.
func (r *rig) emit(p *packet.Packet) { r.sink.pkt = p }

// sampleCap bounds a replay sample: at most 512 packets and about
// 2 MiB of payload, so one pass over it stays in the milliseconds even
// through flate.
func (r *rig) sampleCap(classes map[mixKey]int) int {
	if r.p.smoke {
		return 4
	}
	n, bytes := 0, 0
	for k, c := range classes {
		n += c
		bytes += c * k.Len
	}
	max := 512
	if n > 0 && bytes/n > 0 {
		if byBytes := (2 << 20) / (bytes / n); byBytes < max {
			max = byBytes
		}
	}
	return max
}

// codecCosts is what the codec drivers hand the cost model.
type codecCosts struct {
	encNs, decNs         float64 // v1 packet.Encode / packet.Decode, per packet
	wireEncNs, wireDecNs float64 // wire.Codec send side / receive side, per logical packet
}

// packetRig times the v1 and v2 packet codecs over the workload's mix:
// encodes over what its nodes sent, decodes over what they received.
func packetRig(r *rig) codecCosts {
	msg := r.sims[0].msg
	enc := sample(r.mix.sends, msg, r.sampleCap(r.mix.sends))
	dec := sample(r.mix.recvs, msg, r.sampleCap(r.mix.recvs))

	e := r.time(len(enc), func() {
		for _, s := range enc {
			r.sink.bytes = s.p.Encode()
		}
	})
	frames := make([][]byte, len(dec))
	for i, s := range dec {
		frames[i] = s.p.Encode()
	}
	d := r.time(len(frames), func() {
		for _, f := range frames {
			r.sink.pkt, _ = packet.Decode(f)
		}
	})
	r.m.put("packet.encode_ns", e.ns, "ns")
	r.m.put("packet.decode_ns", d.ns, "ns")
	r.m.put("packet.allocs_per_pkt", e.allocs+d.allocs, "count")

	const thr = packet.DefaultCompressThreshold
	var wireLen, rawLen int
	for _, s := range enc {
		f, raw := packet.EncodeV2(s.p, thr)
		wireLen += len(f)
		rawLen += raw
	}
	e2 := r.time(len(enc), func() {
		for _, s := range enc {
			r.sink.bytes, r.sink.n = packet.EncodeV2(s.p, thr)
		}
	})
	for i, s := range dec {
		frames[i], _ = packet.EncodeV2(s.p, thr)
	}
	d2 := r.time(len(frames), func() {
		for _, f := range frames {
			if err := packet.DecodeFrameV2(f, r.emit); err != nil {
				panic("bench: v2 frame the codec sealed does not decode: " + err.Error())
			}
		}
	})
	r.m.put("packet.v2_encode_ns", e2.ns, "ns")
	r.m.put("packet.v2_decode_ns", d2.ns, "ns")
	r.m.put("packet.v2_allocs_per_pkt", e2.allocs+d2.allocs, "count")
	r.m.put("packet.v2_alloc_kb_per_pkt", (e2.bytes+d2.bytes)/1024, "KiB")
	r.putExact("packet.v2_wire_ratio", ratio(float64(wireLen), float64(rawLen)), "ratio")
	return codecCosts{encNs: e.ns, decNs: d.ns}
}

// wireRig drives wire.Codec the way a transport does: multicast data in
// window-sized bursts through Multicast then FlushBatch (the zero-delay
// flush a sender's pump ends with), unicast control through
// EncodeUnicast — with a benchmark-owned send function instead of a
// socket. The send half is timed over what the workload's nodes sent,
// the receive half (Decode) over what they received: in a multicast
// session every receiver inflates every carrier, so the two mixes
// differ by the group size.
func wireRig(r *rig, cc *codecCosts) {
	msg := r.sims[0].msg
	burst := r.sims[0].pcfg.WindowSize
	if burst < 1 {
		burst = 1
	}
	mx := metrics.NewSession()
	var frames [][]byte
	codec := wire.NewCodec(packet.DefaultCompressThreshold, 0, mx,
		func() {}, func(f []byte) { frames = append(frames, f) })
	frame := func(pk []sampled) {
		frames = frames[:0]
		queued := 0
		for _, s := range pk {
			if !s.mcast {
				frames = append(frames, codec.EncodeUnicast(s.p))
				continue
			}
			codec.Multicast(s.p)
			if queued++; queued == burst {
				codec.FlushBatch()
				queued = 0
			}
		}
		codec.FlushBatch()
	}
	sent := sample(r.mix.sends, msg, r.sampleCap(r.mix.sends))
	e := r.time(len(sent), func() { frame(sent) })
	snap := mx.Snapshot()

	// A received class was multicast if the same class was sent so.
	mcast := map[mixKey]bool{}
	for k := range r.mix.sends {
		if k.Mcast {
			k.Mcast = false
			mcast[k] = true
		}
	}
	heard := map[mixKey]int{}
	for k, c := range r.mix.recvs {
		k.Mcast = mcast[k]
		heard[k] = c
	}
	got := sample(heard, msg, r.sampleCap(heard))
	frame(got)
	d := r.time(len(got), func() {
		for _, f := range frames {
			if err := codec.Decode(f, r.emit); err != nil {
				panic("bench: frame the codec sealed does not decode: " + err.Error())
			}
		}
	})
	r.m.put("wire.encode_ns_per_pkt", e.ns, "ns")
	r.m.put("wire.decode_ns_per_pkt", d.ns, "ns")
	r.m.put("wire.codec_ns_per_pkt", e.ns+d.ns, "ns")
	r.m.put("wire.allocs_per_pkt", e.allocs+d.allocs, "count")
	r.putExact("wire.pkts_per_carrier", ratio(float64(snap.CoalescedPackets), float64(snap.CarrierFrames)), "count")
	r.putExact("wire.compressed_share", ratio(float64(snap.CompressedFrames), float64(snap.WireFrames)), "ratio")
	cc.wireEncNs, cc.wireDecNs = e.ns, d.ns
}

// windowRig times the sliding-window bookkeeping: one packet's
// CanSend/Sent/Ack cycle at the workload's window, and one cumulative
// acknowledgment's MinTracker.Update + Min at 30 and at 1024 peers, in
// the order a sender sees them (every peer reports the same value in
// turn, so the floor holder changes on every update).
func windowRig(r *rig) {
	w := r.sims[0].pcfg.WindowSize
	if w < 1 {
		w = 1
	}
	const packets = 1 << 14
	c := r.time(packets, func() {
		s := window.NewSender(w, packets)
		for !s.Done() {
			for s.CanSend() {
				s.Sent()
			}
			s.Ack(s.Next)
		}
	})
	r.m.put("window.sender_cycle_ns", c.ns, "ns")
	for _, n := range []int{30, 1024} {
		peers := make([]int, n)
		for i := range peers {
			peers[i] = i + 1
		}
		m := window.NewMinTracker(peers)
		rounds := r.p.size(1+4096/n, 1)
		var v uint32
		u := r.time(rounds*n, func() {
			for k := 0; k < rounds; k++ {
				v++
				for _, p := range peers {
					m.Update(p, v)
					r.sink.n = int(m.Min())
				}
			}
		})
		r.m.put(fmt.Sprintf("window.mintracker_update_ns_n%d", n), u.ns, "ns")
	}
}

// coreRig runs each of the workload's protocol configurations on the
// null Env: untraced for the wall time and the allocation count, once
// more with a span around every Start, OnPacket and timer callback for
// the split. It returns the summed untraced wall time of one pass over
// the configurations, which is the model's core term.
func coreRig(r *rig) (time.Duration, error) {
	var wallSum time.Duration
	var deliveries, mallocs float64
	for _, t := range r.sims {
		pcfg := t.pcfg
		pcfg.NumReceivers = t.ccfg.NumReceivers
		mem := markMem()
		walls, err := sampleFor(r.budget, 1, func() (time.Duration, error) {
			nt, err := runNull(pcfg, t.msg, nil)
			deliveries += float64(nt.deliveries)
			return nt.wall, err
		})
		if err != nil {
			return 0, err
		}
		m, _ := mem.since()
		mallocs += m
		wallSum += time.Duration(median(walls))
		r.d.put("core.null_ms."+t.label, median(walls)/1e6, "ms")
		if _, err := runNull(pcfg, t.msg, r.tr); err != nil {
			return 0, err
		}
	}
	r.m.put("core.null_ms_per_transfer", ms(wallSum)/float64(len(r.sims)), "ms")
	r.m.put("core.allocs_per_pkt", ratio(mallocs, deliveries), "count")
	return wallSum, nil
}

// coreSpans reduces the null-Env spans to the per-call numbers.
func coreSpans(r *rig, stats map[string]*spanStat) {
	mean := func(name string) float64 {
		if st := stats[name]; st != nil {
			return st.MeanNs
		}
		return 0
	}
	r.m.put("core.sender_onpacket_ns", mean("core.Sender.OnPacket"), "ns")
	r.m.put("core.receiver_onpacket_ns", mean("core.Receiver.OnPacket"), "ns")
	r.m.put("core.sender_start_ms", mean("core.Sender.Start")/1e6, "ms")
}

func nopEvent(a, b any) {}

// simRig times the event engine alone: schedule + fire at queue depth 1
// and with a standing population of 1024 events, and the O(1) cancel.
func simRig(r *rig) {
	const n = 1 << 14
	s := sim.New()
	d1 := r.time(n, func() {
		for i := 0; i < n; i++ {
			s.AfterFunc(time.Microsecond, nopEvent, s, nil)
			s.Step()
		}
	})
	deep := sim.New()
	for i := 0; i < 1024; i++ {
		deep.AtFunc(time.Duration(1<<62)-time.Duration(i), nopEvent, nil, nil)
	}
	d1k := r.time(n, func() {
		for i := 0; i < n; i++ {
			deep.AfterFunc(time.Microsecond, nopEvent, deep, nil)
			deep.Step()
		}
	})
	c := sim.New()
	cancel := r.time(n, func() {
		for i := 0; i < n; i++ {
			c.Cancel(c.AfterFunc(time.Second, nopEvent, nil, nil))
		}
	})
	r.m.put("sim.schedule_fire_ns_d1", d1.ns, "ns")
	r.m.put("sim.schedule_fire_ns_d1k", d1k.ns, "ns")
	r.m.put("sim.cancel_ns", cancel.ns, "ns")
}

// simReplay re-runs the operation's transfers through cluster.New +
// NewSession, the one runner that leaves the simulator reachable, and
// steps it from here: Simulator.Fired() says how many events a transfer
// is, the wall time how fast the host fires them, and Pending() sampled
// every 64 steps how deep the event queue stood — which is what the
// two-host rigs of the rungs above never see. It returns the events of
// one operation and the mean queue depth, for the cost model.
func simReplay(r *rig) (events, depth float64, err error) {
	var fired, depthSum, samples uint64
	var wall time.Duration
	for _, t := range r.sims {
		id := r.tr.begin("cluster.New")
		c, err := cluster.New(t.ccfg)
		r.tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		s, err := cluster.NewSession(c, core.SenderID, cluster.Port, t.pcfg, t.msg)
		if err != nil {
			return 0, 0, err
		}
		id = r.tr.begin("sim.Simulator.Step loop")
		t0 := time.Now()
		for steps := 0; !s.Done(); steps++ {
			if !c.Sim.Step() || c.Sim.Now() > t.ccfg.Deadline {
				return 0, 0, fmt.Errorf("replay of the %s transfer stalled at %v", t.label, c.Sim.Now())
			}
			if steps&63 == 0 {
				depthSum += uint64(c.Sim.Pending())
				samples++
			}
		}
		wall += time.Since(t0)
		r.tr.end(id)
		fired += c.Sim.Fired()
	}
	events, depth = float64(fired), ratio(float64(depthSum), float64(samples))
	r.putExact("sim.events_per_transfer", events/float64(len(r.sims)), "count")
	r.m.put("sim.host_events_per_s", ratio(events, wall.Seconds()), "1/s")
	r.d.put("sim.replay_wall_ms", ms(wall), "ms")
	r.d.put("sim.mean_queue_depth", depth, "count")
	return events, depth, nil
}

// shardRig runs the sim_scale tree transfer on the serial engine and on
// two shards and reports sharded over serial wall time — below 1 means
// sharding pays on this host's cores (recorded in the environment).
func shardRig(r *rig) error {
	transfers, err := scaleTransfers(r.p)
	if err != nil {
		return err
	}
	t := transfers[0]
	var wall [2]time.Duration
	for i, shards := range []int{0, 2} {
		ccfg := t.ccfg
		ccfg.Shards = shards
		ccfg.Message = t.msg
		t0 := time.Now()
		res, err := cluster.Run(context.Background(), ccfg, cluster.ProtoSpec(t.pcfg), len(t.msg))
		wall[i] = time.Since(t0)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		if !res.Verified {
			return fmt.Errorf("shards=%d: corrupted delivery", shards)
		}
	}
	r.m.put("sim.shard2_wall_ratio", ratio(float64(wall[1]), float64(wall[0])), "ratio")
	return nil
}

// ethernetRig times a benchmark-built 32-port switch on a bare
// simulator: a flooded frame's cost per egress copy and a table-routed
// frame's cost, Tx serialization events included.
func ethernetRig(r *rig) {
	const ports, frames = 32, 64
	s := sim.New()
	sw := ethernet.NewSwitch(s, ethernet.SwitchConfig{
		PortRate: ethernet.Rate100Mbps, ForwardDelay: 5 * time.Microsecond, PortPropagation: time.Microsecond,
	})
	got := 0
	sink := ethernet.ReceiverFunc(func(f *ethernet.Frame) { got++; f.Release() })
	tx := sw.ConnectPort(0, sink)
	for h := 1; h < ports; h++ {
		sw.ConnectPort(ethernet.Addr(h), sink)
	}
	// Plain-literal frames are not pooled, so the same ones serve every
	// batch once the previous batch has drained.
	pool := make([]ethernet.Frame, frames)
	flood := r.time(frames*(ports-1), func() {
		for i := range pool {
			pool[i] = ethernet.Frame{Src: 0, Dst: ethernet.Broadcast, Multicast: true, WireBytes: 1538}
			tx.Send(&pool[i])
		}
		s.Run()
	})
	uni := r.time(frames, func() {
		for i := range pool {
			pool[i] = ethernet.Frame{Src: 0, Dst: ethernet.Addr(1 + i%(ports-1)), WireBytes: 1538}
			tx.Send(&pool[i])
		}
		s.Run()
	})
	if got == 0 {
		panic("bench: the switch rig delivered nothing")
	}
	r.m.put("ethernet.flood_ns_per_copy", flood.ns, "ns")
	r.m.put("ethernet.unicast_ns_per_frame", uni.ns, "ns")
}

// dgramSizes are the datagram payload sizes the ipnet driver times:
// sim_small's one-frame packets, and sim_bulk's 6- and 34-fragment ones.
var dgramSizes = []int{512, 8000, 50000}

// dgramCosts is the ipnet driver's result for the cost model, indexed
// like dgramSizes: the whole path, and the sending half alone.
type dgramCosts struct{ full, tx [3]float64 }

// ipnetRig times Socket.SendTo between two Hosts over one Link — send
// syscall model, fragmentation, the link's Tx, reassembly, socket
// queue, read — and, for the model, the same send into a discarding
// peer, which is the half a multicast pays once however many receive.
func ipnetRig(r *rig) dgramCosts {
	const port, batch = 9, 16
	link := ethernet.TxConfig{Rate: ethernet.Rate100Mbps, Propagation: time.Microsecond}
	host := func(s *sim.Simulator, a int) *ipnet.Host {
		return ipnet.NewHost(s, ipnet.HostConfig{Addr: ipnet.Addr(a), Costs: ipnet.DefaultCosts(), RecvBuf: 4 << 20})
	}
	var out dgramCosts
	var allocs float64
	for i, size := range dgramSizes {
		payload := make([]byte, size)

		s := sim.New()
		a, b := host(s, 0), host(s, 1)
		l := ethernet.NewLink(s, link, a, b)
		a.SetTx(l.AtoB)
		b.SetTx(l.BtoA)
		got := 0
		sock := a.Bind(port, func(*ipnet.Datagram) {})
		b.Bind(port, func(*ipnet.Datagram) { got++ })
		full := r.time(batch, func() {
			for k := 0; k < batch; k++ {
				sock.SendTo(1, port, payload)
			}
			s.Run()
		})
		if got == 0 {
			panic("bench: the ipnet rig delivered nothing")
		}

		s2 := sim.New()
		lone := host(s2, 0)
		lone.SetTx(ethernet.NewTx(s2, link, nil))
		sock2 := lone.Bind(port, func(*ipnet.Datagram) {})
		tx := r.time(batch, func() {
			for k := 0; k < batch; k++ {
				sock2.SendTo(1, port, payload)
			}
			s2.Run()
		})

		out.full[i], out.tx[i] = full.ns, tx.ns
		allocs += full.allocs
		r.m.put(fmt.Sprintf("ipnet.dgram_ns_%d", size), full.ns, "ns")
		r.d.put(fmt.Sprintf("ipnet.tx_ns_%d", size), tx.ns, "ns")
	}
	r.m.put("ipnet.allocs_per_dgram", allocs/float64(len(dgramSizes)), "count")
	return out
}

// at interpolates a per-datagram cost at payload size n between the
// measured sizes; below the smallest it is flat (one frame either way).
func at(costs [3]float64, n int) float64 {
	if n <= dgramSizes[0] {
		return costs[0]
	}
	for i := 1; i < len(dgramSizes); i++ {
		if n <= dgramSizes[i] || i == len(dgramSizes)-1 {
			lo, hi := float64(dgramSizes[i-1]), float64(dgramSizes[i])
			return costs[i-1] + (costs[i]-costs[i-1])*(float64(n)-lo)/(hi-lo)
		}
	}
	return costs[len(costs)-1]
}

// clusterRig times testbed construction at the paper's size and at the
// scale workload's, and for the model at each of the workload's own
// testbeds. It returns the latter's sum over one operation.
func clusterRig(r *rig) (time.Duration, error) {
	build := func(ccfg cluster.Config) (time.Duration, error) {
		walls, err := sampleFor(r.budget/2, 3, func() (time.Duration, error) {
			t0 := time.Now()
			_, err := cluster.New(ccfg)
			return time.Since(t0), err
		})
		return time.Duration(median(walls)), err
	}
	n30, err := build(cluster.Default(30))
	if err != nil {
		return 0, err
	}
	scale, err := scaleTransfers(r.p)
	if err != nil {
		return 0, err
	}
	n1024, err := build(scale[0].ccfg)
	if err != nil {
		return 0, err
	}
	r.m.put("cluster.new_ms_n30", ms(n30), "ms")
	r.m.put("cluster.new_ms_n1024", ms(n1024), "ms")
	// The operation's own testbeds: most rounds reuse one.
	type testbed struct {
		n      int
		fabric bool
	}
	built := map[testbed]time.Duration{{30, false}: n30, {scale[0].ccfg.NumReceivers, true}: n1024}
	var own time.Duration
	for _, t := range r.sims {
		key := testbed{t.ccfg.NumReceivers, t.ccfg.Topo != nil}
		d, ok := built[key]
		if !ok {
			if d, err = build(t.ccfg); err != nil {
				return 0, err
			}
			built[key] = d
		}
		own += d
	}
	return own, nil
}

// fromResults reads the exact counts off the operation's own simulated
// results: sender CPU, wire efficiency both ways, switch and host
// counters, virtual time. These are behaviour, not performance: they do
// not move unless a change says why.
func fromResults(r *rig, results []*cluster.Result) {
	var elapsed, busy time.Duration
	var msgBytes, fwd, all float64
	var flooded, forwarded, qdrops, dgrams, sockDrops, reasmDrops, txBlocked uint64
	for i, res := range results {
		elapsed += res.Elapsed
		busy += res.HostStats[0].CPUBusy
		msgBytes += float64(res.MsgSize)
		var sent float64
		for _, hs := range res.HostStats {
			sent += float64(hs.SentBytes)
			dgrams += hs.SentDatagrams
			sockDrops += hs.SocketDrops
			reasmDrops += hs.ReasmDrops
			txBlocked += hs.TxBlocked
		}
		fwd += float64(res.HostStats[0].SentBytes)
		all += sent
		for _, ss := range res.SwitchStats {
			flooded += ss.Flooded
			forwarded += ss.Forwarded
			qdrops += ss.QueueDrops
		}
		label := r.sims[i].label
		r.d.put("cluster.virtual_ms."+label, ms(res.Elapsed), "ms")
		r.d.put("cluster.wire_eff_fwd."+label, ratio(float64(res.MsgSize), float64(res.HostStats[0].SentBytes)), "ratio")
		r.d.put("cluster.wire_eff_total."+label, ratio(float64(res.MsgSize), sent), "ratio")
	}
	n := float64(len(results))
	r.putExact("cluster.virtual_ms", ms(elapsed)/n, "ms")
	r.putExact("cluster.sim_mbps", ratio(msgBytes*8/1e6, elapsed.Seconds()), "Mbit/s")
	r.putExact("cluster.sender_busy_share", ratio(float64(busy), float64(elapsed)), "ratio")
	r.putExact("cluster.wire_eff_fwd", ratio(msgBytes, fwd), "ratio")
	r.putExact("cluster.wire_eff_total", ratio(msgBytes, all), "ratio")
	r.putExact("ethernet.frames_flooded", float64(flooded), "count")
	r.putExact("ethernet.frames_forwarded", float64(forwarded), "count")
	r.putExact("ethernet.queue_drops", float64(qdrops), "count")
	r.putExact("ipnet.datagrams_sent", float64(dgrams), "count")
	r.putExact("ipnet.socket_drops", float64(sockDrops), "count")
	r.putExact("ipnet.reasm_drops", float64(reasmDrops), "count")
	r.putExact("ipnet.tx_blocked", float64(txBlocked), "count")
}

// senderCounts reports the ACK-implosion numbers from the sender state
// machines of the workload's own run.
func senderCounts(r *rig, stats []core.SenderStats) {
	var ctrl, data, retrans, timeouts float64
	for _, s := range stats {
		ctrl += float64(s.AcksReceived + s.NaksReceived)
		data += float64(s.DataSent)
		retrans += float64(s.Retransmissions)
		timeouts += float64(s.Timeouts)
	}
	r.putExact("core.ctrl_per_data", ratio(ctrl, data), "ratio")
	r.putExact("core.retrans_per_data", ratio(retrans, data), "ratio")
	r.putExact("core.timeouts", timeouts/float64(len(stats)), "count")
}

// modelInputs is everything the host-time attribution needs.
type modelInputs struct {
	runWall  time.Duration // measured wall of the operation's cluster.Run calls (untraced pass p50)
	newWall  time.Duration // cluster.New over the operation's testbeds
	coreWall time.Duration // null-Env core over the operation's configurations
	codec    codecCosts
	dgram    dgramCosts
	floodNs  float64
	uniNs    float64
	results  []*cluster.Result
	v2       bool
	// mix is the packet mix of exactly one operation (the replay's).
	mix       *mixCounter
	receivers int
	// events and depth come from the replay: events fired in one
	// operation and the mean event-queue depth they were fired at.
	events, depth   float64
	fireD1, fireD1k float64
}

// attribute prints ROADMAP item 1(d)'s table: one operation's wall time
// split over the rungs by count × isolated unit cost. It is an
// estimate — unit costs measured alone ignore cache and GC interplay —
// and the share the rungs do not explain is reported, not hidden.
//
// Terms (counts per operation, from the replay's packet mix and results):
//
//	cluster.New  measured directly
//	core         null-Env wall time of the same configurations
//	codec        v1: sends×encode + receives×decode; v2: the wire.Codec halves
//	ipnet        unicast datagrams × full path(size) + multicast datagrams ×
//	             (send half + receivers × receive half), fragments included
//	ethernet     flooded frames × egress copies × per-copy + forwarded × per-frame
//	sim depth    events × the heap-depth surcharge: the ipnet and ethernet
//	             drivers fire their events at queue depth ~1, the real run
//	             at the replay's mean depth d, and a binary heap's cost
//	             grows with log2 d — scaled between the two measured points
//	             schedule_fire_ns_d1 and _d1k (log2 1024 = 10)
func attribute(r *rig, in modelInputs) {
	var sends, recvs, netNs float64
	receivers := float64(in.receivers)
	for k, c := range in.mix.sends {
		n := float64(c)
		sends += n
		size := packet.HeaderLen + k.Len
		if k.Mcast {
			rx := at(in.dgram.full, size) - at(in.dgram.tx, size)
			netNs += n * (at(in.dgram.tx, size) + receivers*rx)
		} else {
			netNs += n * at(in.dgram.full, size)
		}
	}
	for _, c := range in.mix.recvs {
		recvs += float64(c)
	}
	codecNs := sends*in.codec.encNs + recvs*in.codec.decNs
	if in.v2 {
		codecNs = sends*in.codec.wireEncNs + recvs*in.codec.wireDecNs
	}
	var flooded, forwarded, copies float64
	for _, res := range in.results {
		for _, ss := range res.SwitchStats {
			flooded += float64(ss.Flooded)
			forwarded += float64(ss.Forwarded)
		}
	}
	if len(in.results) > 0 && len(in.results[0].SwitchStats) > 0 {
		// Egress copies per flooded frame: every host but the sender hears
		// it, spread over the switches that flooded it.
		copies = receivers / float64(len(in.results[0].SwitchStats))
	}
	etherNs := flooded*copies*in.floodNs + forwarded*in.uniNs
	depthNs := in.events * (in.fireD1k - in.fireD1) * math.Log2(1+in.depth) / 10

	total := float64(in.runWall)
	terms := []struct {
		name string
		ns   float64
	}{
		{"cluster_new", float64(in.newWall)},
		{"core", float64(in.coreWall)},
		{"codec", codecNs},
		{"ipnet", netNs},
		{"ethernet", etherNs},
		{"sim_depth", depthNs},
	}
	explained := 0.0
	for _, t := range terms {
		explained += t.ns
		r.d.put("model."+t.name+"_ms", t.ns/1e6, "ms")
		r.d.put("model."+t.name+"_share", ratio(t.ns, total), "ratio")
	}
	r.d.put("model.run_wall_ms", total/1e6, "ms")
	r.d.put("model.sends_per_op", sends, "count")
	r.d.put("model.recvs_per_op", recvs, "count")
	r.m.put("cluster.model_residual_share", ratio(total-explained, total), "ratio")
}
