package exp

import (
	"context"
	"fmt"

	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/stats"
)

// ablationConfigs returns one representative config per protocol.
func ablationConfigs(n int) []core.Config {
	h := min(6, n)
	return []core.Config{
		{Protocol: core.ProtoACK, NumReceivers: n, PacketSize: 8000, WindowSize: 8},
		{Protocol: core.ProtoNAK, NumReceivers: n, PacketSize: 8000, WindowSize: 20, PollInterval: 17},
		{Protocol: core.ProtoRing, NumReceivers: n, PacketSize: 8000, WindowSize: n + 20},
		{Protocol: core.ProtoTree, NumReceivers: n, PacketSize: 8000, WindowSize: 20, TreeHeight: h},
	}
}

// runAblationMedia compares every protocol on the switched testbed vs a
// single shared CSMA/CD segment. The paper argues shared media may not
// resolve many simultaneous transmissions efficiently — this quantifies
// it (collisions, aborted frames, elapsed time).
func runAblationMedia(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	if !o.Quick && n > 12 {
		// A 100 Mbps bus saturates hopelessly at the full 30-receiver
		// scale with ack-heavy protocols; the paper's shared-media
		// discussion is about the mechanism, which 12 stations exhibit.
		n = 12
	}
	size := 500 * KB
	if o.Quick {
		size = 100 * KB
	}
	t := &stats.Table{
		Title:  fmt.Sprintf("%dB to %d receivers", size, n),
		Header: []string{"protocol", "switched (s)", "shared bus (s)", "bus/switched", "collisions", "aborted frames"},
	}
	cfgs := ablationConfigs(n)
	var pts []point
	for _, pcfg := range cfgs {
		bcfg := o.clusterConfig(n)
		bcfg.Topology = cluster.SharedBus
		pts = append(pts, o.mc(n, pcfg, size), point{bcfg, cluster.ProtoSpec(pcfg), size})
	}
	res, err := o.run(ctx, pts)
	if err != nil {
		return nil, err
	}
	var findings []string
	for i, pcfg := range cfgs {
		sw, bus := res[2*i], res[2*i+1]
		ratio := secs(bus.Elapsed) / secs(sw.Elapsed)
		t.AddRow(pcfg.Protocol.String(), secs(sw.Elapsed), secs(bus.Elapsed), ratio,
			bus.BusStats.Collisions, bus.BusStats.Aborted)
		findings = append(findings, fmt.Sprintf("%v: shared media costs %.2fx the switched time (%d collisions)",
			pcfg.Protocol, ratio, bus.BusStats.Collisions))
	}
	findings = append(findings,
		"switches eliminate contention; on shared media, protocols limiting simultaneous transmissions (ring, tree, NAK) collide far less than ACK-based")
	return &Report{ID: "ablation_media", Title: "Media comparison", PaperRef: "Section 3",
		Tables: []*stats.Table{t}, Findings: findings}, nil
}

// runAblationSuppress measures what the sender-side retransmission
// suppression interval is worth when losses do occur.
func runAblationSuppress(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 500 * KB
	if o.Quick {
		size = 150 * KB
	}
	t := &stats.Table{
		Title:  fmt.Sprintf("NAK+polling, %dB to %d receivers, 1%% frame loss", size, n),
		Header: []string{"suppression", "time (s)", "retransmitted pkts", "acks processed"},
	}
	labels := []string{"on (default)", "off"}
	pts := make([]point, len(labels))
	for i := range labels {
		pcfg := core.Config{Protocol: core.ProtoNAK, PacketSize: 8000, WindowSize: 20, PollInterval: 17}
		if i == 1 {
			// The interval cannot be zero (Normalize fills the default),
			// so "off" means vanishingly small.
			pcfg.SuppressInterval = 1
			pcfg.NakInterval = 1
		}
		ccfg := o.clusterConfig(n)
		ccfg.LossRate = 0.01
		pts[i] = point{ccfg, cluster.ProtoSpec(pcfg), size}
	}
	res, err := o.run(ctx, pts)
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		t.AddRow(labels[i], secs(r.Elapsed), r.SenderStats.Retransmissions, r.SenderStats.AcksReceived)
	}
	findings := []string{fmt.Sprintf(
		"suppression cuts retransmitted packets from %d to %d: one Go-Back-N resend answers a whole burst of NAKs",
		res[1].SenderStats.Retransmissions, res[0].SenderStats.Retransmissions)}
	return &Report{ID: "ablation_suppress", Title: "Retransmission suppression", PaperRef: "Section 4",
		Tables: []*stats.Table{t}, Findings: findings}, nil
}

// runAblationLoss sweeps injected frame loss and reports the Go-Back-N
// retransmission volume and completion time per protocol.
func runAblationLoss(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 500 * KB
	rates := []float64{0, 0.001, 0.005, 0.01, 0.02}
	if o.Quick {
		size = 100 * KB
		rates = []float64{0, 0.01}
	}
	cfgs := ablationConfigs(n)
	var pts []point
	for _, pcfg := range cfgs {
		for _, rate := range rates {
			ccfg := o.clusterConfig(n)
			ccfg.LossRate = rate
			pts = append(pts, point{ccfg, cluster.ProtoSpec(pcfg), size})
		}
	}
	res, err := o.run(ctx, pts)
	if err != nil {
		return nil, err
	}
	var timeSeries, rtSeries []*stats.Series
	for _, pcfg := range cfgs {
		ts := &stats.Series{Label: pcfg.Protocol.String() + " (s)"}
		rs := &stats.Series{Label: pcfg.Protocol.String() + " (pkts)"}
		for _, rate := range rates {
			ts.Add(rate*100, secs(res[0].Elapsed))
			rs.Add(rate*100, float64(res[0].SenderStats.Retransmissions))
			res = res[1:]
		}
		timeSeries = append(timeSeries, ts)
		rtSeries = append(rtSeries, rs)
	}
	findings := []string{
		"on a wired LAN (loss ≈ 0) Go-Back-N costs nothing: zero retransmissions in the error-free column",
		"under loss, Go-Back-N resends whole windows; the simplicity is paid for only when errors occur, which justifies the paper's choice over selective repeat",
	}
	return &Report{ID: "ablation_loss", Title: "Loss sensitivity", PaperRef: "Section 4",
		Tables: []*stats.Table{
			stats.SeriesTable(fmt.Sprintf("Communication time vs loss (%%), %dB to %d receivers", size, n), "loss %", timeSeries...),
			stats.SeriesTable("Retransmitted data packets vs loss (%)", "loss %", rtSeries...),
		},
		Findings: findings}, nil
}

// runAblationRelay reruns the Figure 20 small-message height sweep with
// the ack-relay costs removed (as if aggregation ran in the kernel or
// on the NIC), isolating how much of the tall-tree penalty is the
// user-level relay the paper blames.
func runAblationRelay(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	const size = 256
	heights := heightSweep(n, o.Quick)
	user := &curve{label: "user-level relay (s)"}
	kernel := &curve{label: "kernel-cost relay (s)"}
	for _, h := range heights {
		pcfg := core.Config{Protocol: core.ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: h}
		user.add(float64(h), o.mc(n, pcfg, size))
		ccfg := o.clusterConfig(n)
		ccfg.Costs = cluster.TCPCosts() // kernel-path costs, no user copies
		kernel.add(float64(h), point{ccfg, cluster.ProtoSpec(pcfg), size})
	}
	series, err := o.curves(ctx, user, kernel)
	if err != nil {
		return nil, err
	}
	hMax := float64(heights[len(heights)-1])
	findings := []string{fmt.Sprintf(
		"at H=%.0f, kernel-cost relaying cuts the small-message delay from %.2fms to %.2fms: the tall-tree penalty is mostly user-level relay processing, as the paper argues",
		hMax, 1e3*series[0].At(hMax), 1e3*series[1].At(hMax))}
	return &Report{ID: "ablation_relay", Title: "Ack relay cost", PaperRef: "Figure 20 discussion",
		Tables: []*stats.Table{stats.SeriesTable(
			fmt.Sprintf("Small message (%dB) to %d receivers", size, n), "tree height", series...)},
		Findings: findings}, nil
}
