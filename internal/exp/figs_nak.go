package exp

import (
	"context"
	"fmt"

	"rmcast/internal/core"
	"rmcast/internal/stats"
)

// runFig12 sweeps the poll interval 1..20 at window 20 for packet sizes
// 1K/5K/10K, transferring 500 KB to the full receiver set.
func runFig12(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 500 * KB
	packetSizes := []int{1000, 5000, 10000}
	intervals := []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 17, 18, 19, 20}
	const window = 20
	if o.Quick {
		size = 150 * KB
		packetSizes = []int{1000, 10000}
		intervals = []int{1, 8, 16, 20}
	}
	series, err := o.curves(ctx, grid("pkt=%dB (s)", packetSizes, intervals, func(ps, iv int) point {
		return o.mc(n, core.Config{Protocol: core.ProtoNAK, PacketSize: ps, WindowSize: window, PollInterval: iv}, size)
	})...)
	if err != nil {
		return nil, err
	}
	var findings []string
	for i, s := range series {
		bestI, bestT := s.MinY()
		findings = append(findings, fmt.Sprintf(
			"pkt=%dB: best poll interval %d = %.0f%% of the window (%.3fs); interval 1 is %.1fx worse (degenerates to ACK-based)",
			packetSizes[i], int(bestI), 100*bestI/window, bestT, s.At(1)/bestT))
	}
	return &Report{ID: "fig12", Title: "Poll interval vs communication time", PaperRef: "Figure 12",
		Tables: []*stats.Table{stats.SeriesTable(
			fmt.Sprintf("Communication time, %dB to %d receivers, window %d", size, n, window), "poll interval", series...)},
		Findings: findings}, nil
}

// runFig13 sweeps total buffer size (window = buffer/packet) for packet
// sizes 500/8000/50000, poll interval at ~80-85%% of the window.
func runFig13(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 500 * KB
	buffers := []int{50000, 100000, 200000, 300000, 400000, 500000}
	packetSizes := []int{500, 8000, 50000}
	if o.Quick {
		size = 150 * KB
		buffers = []int{100000, 400000}
		packetSizes = []int{500, 8000}
	}
	cs := make([]*curve, len(packetSizes))
	for i, ps := range packetSizes {
		cs[i] = &curve{label: fmt.Sprintf("pkt=%dB (s)", ps)}
		for _, buf := range buffers {
			w := buf / ps
			if w < 2 {
				continue // a 50 KB packet cannot form a window in a 50 KB buffer
			}
			poll := w * 8 / 10
			if poll < 1 {
				poll = 1
			}
			cs[i].add(float64(buf), o.mc(n, core.Config{Protocol: core.ProtoNAK, PacketSize: ps, WindowSize: w, PollInterval: poll}, size))
		}
	}
	series, err := o.curves(ctx, cs...)
	if err != nil {
		return nil, err
	}
	var findings []string
	// The mid packet size should win at large buffers: too small pays
	// per-packet overhead, too large hurts pipelining via the copy.
	if len(series) == 3 {
		lastBuf := float64(buffers[len(buffers)-1])
		findings = append(findings, fmt.Sprintf(
			"at %0.fB buffers: 500B=%.3fs, 8000B=%.3fs, 50000B=%.3fs — mid-size packets win",
			lastBuf, series[0].At(lastBuf), series[1].At(lastBuf), series[2].At(lastBuf)))
		findings = append(findings,
			"small windows cannot sustain the pipeline; performance improves with buffer size")
	}
	return &Report{ID: "fig13", Title: "Buffer size vs communication time", PaperRef: "Figure 13",
		Tables: []*stats.Table{stats.SeriesTable(
			fmt.Sprintf("Communication time, %dB to %d receivers, poll ≈ 80%% of window", size, n), "buffer bytes", series...)},
		Findings: findings}, nil
}

// runFig14 measures NAK+polling scalability across receiver counts with
// per-packet-size tuned windows, as the paper does.
func runFig14(ctx context.Context, o Options) (*Report, error) {
	size := 500 * KB
	if o.Quick {
		size = 150 * KB
	}
	// tuned is each packet size's window and poll interval.
	tuned := map[int][2]int{500: {50, 42}, 8000: {25, 21}, 50000: {10, 8}}
	packetSizes := []int{500, 8000, 50000}
	if o.Quick {
		packetSizes = []int{8000}
	}
	sweep := receiverSweep(o)
	series, err := o.curves(ctx, grid("pkt=%dB (s)", packetSizes, sweep, func(ps, n int) point {
		return o.mc(n, core.Config{Protocol: core.ProtoNAK, PacketSize: ps, WindowSize: tuned[ps][0], PollInterval: tuned[ps][1]}, size)
	})...)
	if err != nil {
		return nil, err
	}
	nMax := float64(sweep[len(sweep)-1])
	var findings []string
	for _, s := range series {
		findings = append(findings, fmt.Sprintf("%s: +%.1f%% from 1 to %.0f receivers",
			s.Label, 100*(s.At(nMax)/s.At(1)-1), nMax))
	}
	findings = append(findings, "larger packets scale better: fewer packets mean fewer poll acknowledgments")
	return &Report{ID: "fig14", Title: "NAK+polling scalability", PaperRef: "Figure 14",
		Tables: []*stats.Table{stats.SeriesTable(
			fmt.Sprintf("Communication time, %dB message", size), "receivers", series...)},
		Findings: findings}, nil
}
