package exp

import (
	"context"
	"fmt"

	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/stats"
	"rmcast/internal/unicast"
)

// receiverSweep returns the receiver counts for scalability figures.
func receiverSweep(o Options) []int {
	if o.Quick {
		return []int{1, 4, 8}
	}
	return []int{1, 5, 10, 15, 20, 25, 30}
}

// runFig8 transfers the paper's 426502-byte file to 1..30 receivers via
// sequential TCP streams and via the ACK-based multicast protocol.
func runFig8(ctx context.Context, o Options) (*Report, error) {
	const fileSize = 426502
	sweep := receiverSweep(o)
	tcpC := &curve{label: "TCP (s)"}
	mcC := &curve{label: "ACK-based (s)"}
	for _, n := range sweep {
		tcpC.add(float64(n), point{o.clusterConfig(n), cluster.TCPSpec(unicast.DefaultConfig()), fileSize})
		mcC.add(float64(n), o.mc(n, core.Config{Protocol: core.ProtoACK, PacketSize: 50000, WindowSize: 2}, fileSize))
	}
	series, err := o.curves(ctx, tcpC, mcC)
	if err != nil {
		return nil, err
	}
	tcp, mc := series[0], series[1]
	nMax := float64(sweep[len(sweep)-1])
	findings := []string{
		fmt.Sprintf("TCP grows ~linearly: %.3fs at 1 receiver vs %.3fs at %.0f (%.1fx)",
			tcp.At(1), tcp.At(nMax), nMax, tcp.At(nMax)/tcp.At(1)),
		fmt.Sprintf("multicast stays ~flat: %.3fs at 1 receiver vs %.3fs at %.0f (+%.0f%%)",
			mc.At(1), mc.At(nMax), nMax, 100*(mc.At(nMax)/mc.At(1)-1)),
	}
	return &Report{ID: "fig8", Title: "Transferring a 426502-byte file", PaperRef: "Figure 8",
		Tables:   []*stats.Table{stats.SeriesTable("Communication time vs number of receivers", "receivers", tcp, mc)},
		Findings: findings}, nil
}

// runFig9 compares raw UDP, the ACK-based protocol, and the (incorrect)
// no-copy variant across message sizes up to 35 KB.
func runFig9(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	sizes := []int{1, 2000, 5000, 10000, 15000, 20000, 25000, 30000, 35000}
	if o.Quick {
		sizes = []int{1, 10000, 35000}
	}
	udpC := &curve{label: "UDP (s)"}
	ackC := &curve{label: "ACK-based (s)"}
	noCopyC := &curve{label: "ACK-based w/o copy (s)"}
	for _, sz := range sizes {
		udpC.add(float64(sz), point{o.clusterConfig(n), cluster.RawUDPSpec(50000), sz})
		base := core.Config{Protocol: core.ProtoACK, PacketSize: 50000, WindowSize: 2}
		ackC.add(float64(sz), o.mc(n, base, sz))
		base.NoUserCopy = true
		noCopyC.add(float64(sz), o.mc(n, base, sz))
	}
	series, err := o.curves(ctx, udpC, ackC, noCopyC)
	if err != nil {
		return nil, err
	}
	udp, ack, noCopy := series[0], series[1], series[2]
	last := float64(sizes[len(sizes)-1])
	findings := []string{
		fmt.Sprintf("the reliable protocol adds substantial overhead over raw UDP: %.1fms vs %.1fms at %.0fB",
			1e3*ack.At(last), 1e3*udp.At(last), last),
		fmt.Sprintf("the user-space copy accounts for most of the large-message overhead: removing it saves %.1fms at %.0fB",
			1e3*(ack.At(last)-noCopy.At(last)), last),
		"small messages pay two handshake round trips before any data moves (Figure 6)",
	}
	return &Report{ID: "fig9", Title: "Protocol overhead vs raw UDP", PaperRef: "Figure 9",
		Tables:   []*stats.Table{stats.SeriesTable("Communication time vs message size", "message bytes", udp, ack, noCopy)},
		Findings: findings}, nil
}

// runFig10 sweeps window size 1..5 for five packet sizes, 500 KB to the
// full receiver set, under the ACK-based protocol.
func runFig10(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 500 * KB
	packetSizes := []int{500, 1300, 3125, 6250, 50000}
	windows := []int{1, 2, 3, 4, 5}
	if o.Quick {
		size = 120 * KB
		packetSizes = []int{1300, 50000}
		windows = []int{1, 2, 4}
	}
	series, err := o.curves(ctx, grid("pkt=%dB (s)", packetSizes, windows, func(ps, w int) point {
		return o.mc(n, core.Config{Protocol: core.ProtoACK, PacketSize: ps, WindowSize: w}, size)
	})...)
	if err != nil {
		return nil, err
	}
	var findings []string
	for i, s := range series {
		bestW, bestT := s.MinY()
		findings = append(findings, fmt.Sprintf("pkt=%dB: best window %d (%.3fs); window 2 within %.0f%% of best",
			packetSizes[i], int(bestW), bestT, 100*(s.At(2)/bestT-1)))
	}
	// Larger packets beat smaller ones across the board.
	small := series[0]
	large := series[len(series)-1]
	_, smallBest := small.MinY()
	_, largeBest := large.MinY()
	findings = append(findings, fmt.Sprintf(
		"larger packets win: best %.3fs at %dB vs %.3fs at %dB (fewer acks to process)",
		largeBest, packetSizes[len(packetSizes)-1], smallBest, packetSizes[0]))
	return &Report{ID: "fig10", Title: "ACK-based: window and packet size", PaperRef: "Figure 10",
		Tables:   []*stats.Table{stats.SeriesTable(fmt.Sprintf("Communication time, %dB to %d receivers", size, n), "window", series...)},
		Findings: findings}, nil
}

// runFig11 measures ACK-based scalability for small (a) and large (b)
// message sizes.
func runFig11(ctx context.Context, o Options) (*Report, error) {
	smallSizes := []int{1, 256, 4096}
	largeSizes := []int{8 * KB, 64 * KB, 500 * KB}
	if o.Quick {
		smallSizes = []int{1, 4096}
		largeSizes = []int{64 * KB}
	}
	sweep := receiverSweep(o)
	sizes := append(smallSizes, largeSizes...)
	series, err := o.curves(ctx, grid("size=%d (s)", sizes, sweep, func(sz, n int) point {
		return o.mc(n, core.Config{Protocol: core.ProtoACK, PacketSize: 50000, WindowSize: 2}, sz)
	})...)
	if err != nil {
		return nil, err
	}
	smallSeries, largeSeries := series[:len(smallSizes)], series[len(smallSizes):]
	nMax := float64(sweep[len(sweep)-1])
	tiny := smallSeries[0]
	big := largeSeries[len(largeSeries)-1]
	findings := []string{
		fmt.Sprintf("small messages scale ~linearly with receivers: 1B grows %.1fx from 1 to %.0f receivers (ack processing dominates)",
			tiny.At(nMax)/tiny.At(1), nMax),
		fmt.Sprintf("large messages are scalable: %s grows only %.0f%% from 1 to %.0f receivers (data transmission dominates)",
			big.Label, 100*(big.At(nMax)/big.At(1)-1), nMax),
	}
	return &Report{ID: "fig11", Title: "ACK-based scalability", PaperRef: "Figure 11",
		Tables: []*stats.Table{
			stats.SeriesTable("(a) small message sizes", "receivers", smallSeries...),
			stats.SeriesTable("(b) large message sizes", "receivers", largeSeries...),
		},
		Findings: findings}, nil
}
