package exp

import (
	"context"
	"fmt"

	"rmcast/internal/core"
	"rmcast/internal/stats"
)

// runFig15 sweeps the packet size for a 2 MB transfer at window 35.
func runFig15(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 2 * MB
	packetSizes := []int{1000, 2000, 5000, 8000, 10000, 20000, 35000, 50000}
	window := 35
	if o.Quick {
		size = 512 * KB
		packetSizes = []int{1000, 8000, 50000}
	}
	if window <= n {
		window = n + 5 // the ring protocol requires window > N
	}
	c := &curve{label: "time (s)"}
	for _, ps := range packetSizes {
		c.add(float64(ps), o.mc(n, core.Config{Protocol: core.ProtoRing, PacketSize: ps, WindowSize: window}, size))
	}
	series, err := o.curves(ctx, c)
	if err != nil {
		return nil, err
	}
	s := series[0]
	bestPS, bestT := s.MinY()
	first := s.Y[0]
	last := s.Y[len(s.Y)-1]
	findings := []string{
		fmt.Sprintf("best packet size %.0fB (%.3fs); too small pays per-packet overhead (%.3fs at %dB), too large hurts pipelining (%.3fs at %dB)",
			bestPS, bestT, first, packetSizes[0], last, packetSizes[len(packetSizes)-1]),
	}
	return &Report{ID: "fig15", Title: "Ring-based: packet size", PaperRef: "Figure 15",
		Tables: []*stats.Table{stats.SeriesTable(
			fmt.Sprintf("Communication time, %dB to %d receivers, window %d", size, n, window), "packet bytes", s)},
		Findings: findings}, nil
}

// runFig16 sweeps the window size 40..100 for three packet sizes on a
// 2 MB transfer.
func runFig16(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 2 * MB
	// The paper sweeps 40..100; we extend the sweep down to just above
	// N, where the protocol's base lag of N packets bites hardest.
	windows := []int{n + 1, n + 2, n + 5, 40, 50, 60, 70, 80, 90, 100}
	packetSizes := []int{1000, 8000, 20000}
	if o.Quick {
		size = 512 * KB
		windows = []int{n + 1, n + 12, n + 40}
		packetSizes = []int{8000}
	}
	cs := make([]*curve, len(packetSizes))
	for i, ps := range packetSizes {
		cs[i] = &curve{label: fmt.Sprintf("pkt=%dB (s)", ps)}
		for _, w := range windows {
			if w > n {
				cs[i].add(float64(w), o.mc(n, core.Config{Protocol: core.ProtoRing, PacketSize: ps, WindowSize: w}, size))
			}
		}
	}
	series, err := o.curves(ctx, cs...)
	if err != nil {
		return nil, err
	}
	var findings []string
	for i, s := range series {
		bestW, bestT := s.MinY()
		findings = append(findings, fmt.Sprintf("pkt=%dB: best window %d (%.3fs)", packetSizes[i], int(bestW), bestT))
	}
	findings = append(findings, fmt.Sprintf(
		"the ring needs windows well beyond N=%d: an ACK for packet X only frees packet X−N", n))
	return &Report{ID: "fig16", Title: "Ring-based: window size", PaperRef: "Figure 16",
		Tables: []*stats.Table{stats.SeriesTable(
			fmt.Sprintf("Communication time, %dB to %d receivers", size, n), "window", series...)},
		Findings: findings}, nil
}

// runFig17 measures ring scalability on a 2 MB transfer at window 50.
func runFig17(ctx context.Context, o Options) (*Report, error) {
	size := 2 * MB
	if o.Quick {
		size = 512 * KB
	}
	sweep := receiverSweep(o)
	c := &curve{label: "pkt=8000B (s)"}
	for _, n := range sweep {
		w := 50
		if w <= n {
			w = n + 20
		}
		c.add(float64(n), o.mc(n, core.Config{Protocol: core.ProtoRing, PacketSize: 8000, WindowSize: w}, size))
	}
	series, err := o.curves(ctx, c)
	if err != nil {
		return nil, err
	}
	s := series[0]
	nMax := float64(sweep[len(sweep)-1])
	findings := []string{fmt.Sprintf(
		"scalability is a non-issue for large messages: +%.1f%% from 1 to %.0f receivers",
		100*(s.At(nMax)/s.At(1)-1), nMax)}
	return &Report{ID: "fig17", Title: "Ring-based scalability", PaperRef: "Figure 17",
		Tables: []*stats.Table{stats.SeriesTable(
			fmt.Sprintf("Communication time, %dB message, window 50", size), "receivers", s)},
		Findings: findings}, nil
}
