package exp

import (
	"context"
	"fmt"

	"rmcast/internal/core"
	"rmcast/internal/stats"
)

// heightSweep returns flat-tree heights 1..N to sweep.
func heightSweep(n int, quick bool) []int {
	if quick {
		out := []int{1, 2}
		if n >= 4 {
			out = append(out, n/2)
		}
		out = append(out, n)
		return out
	}
	var out []int
	for _, h := range []int{1, 2, 3, 5, 6, 10, 15, 20, 25, 30} {
		if h <= n {
			out = append(out, h)
		}
	}
	if out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// runFig18 sweeps the flat-tree height for 8 KB and 50 KB packets at a
// generous window, transferring 500 KB.
func runFig18(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 500 * KB
	if o.Quick {
		size = 150 * KB
	}
	packetSizes := []int{50000, 8000}
	heights := heightSweep(n, o.Quick)
	series, err := o.curves(ctx, grid("pkt=%dB (s)", packetSizes, heights, func(ps, h int) point {
		return o.mc(n, core.Config{Protocol: core.ProtoTree, PacketSize: ps, WindowSize: 20, TreeHeight: h}, size)
	})...)
	if err != nil {
		return nil, err
	}
	var findings []string
	for i, s := range series {
		bestH, bestT := s.MinY()
		findings = append(findings, fmt.Sprintf(
			"pkt=%dB: best height %d (%.3fs); extremes H=1 (%.3fs) and H=%d (%.3fs) are not optimal",
			packetSizes[i], int(bestH), bestT, s.At(1), n, s.At(float64(n))))
	}
	// 8 KB generally beats 50 KB except at H=1.
	if len(series) == 2 {
		cnt := 0
		tot := 0
		for i, h := range series[1].X {
			if h == 1 {
				continue
			}
			tot++
			if series[1].Y[i] < series[0].At(h) {
				cnt++
			}
		}
		findings = append(findings, fmt.Sprintf(
			"8KB packets beat 50KB at %d of %d heights above 1 (aggregated acks make small packets cheap)", cnt, tot))
	}
	return &Report{ID: "fig18", Title: "Flat-tree height sweep", PaperRef: "Figure 18",
		Tables: []*stats.Table{stats.SeriesTable(
			fmt.Sprintf("Communication time, %dB to %d receivers, window 20", size, n), "tree height", series...)},
		Findings: findings}, nil
}

// runFig19 sweeps window size for several heights at 8 KB packets,
// showing taller trees need more window to fill their longer ack pipe.
func runFig19(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 500 * KB
	windows := []int{1, 2, 4, 6, 8, 10, 14, 20}
	heights := []int{1, 2, 6, 30}
	if o.Quick {
		size = 150 * KB
		windows = []int{1, 4, 12}
		heights = []int{1, n}
	}
	for i, h := range heights {
		if h > n {
			heights[i] = n
		}
	}
	series, err := o.curves(ctx, grid("H=%d (s)", heights, windows, func(h, w int) point {
		return o.mc(n, core.Config{Protocol: core.ProtoTree, PacketSize: 8000, WindowSize: w, TreeHeight: h}, size)
	})...)
	if err != nil {
		return nil, err
	}
	var findings []string
	// How much window does each height need to get within 10% of best?
	for _, s := range series {
		_, best := s.MinY()
		need := s.X[len(s.X)-1]
		for i := range s.X {
			if s.Y[i] <= 1.1*best {
				need = s.X[i]
				break
			}
		}
		findings = append(findings, fmt.Sprintf("%s needs window ≈ %.0f to come within 10%% of its best %.3fs",
			s.Label, need, best))
	}
	if len(series) >= 2 {
		deep := series[len(series)-1]
		maxW := deep.X[len(deep.X)-1]
		findings = append(findings, fmt.Sprintf(
			"with sufficient window the taller trees beat H=1 (ACK-based): %.3fs vs %.3fs",
			deep.At(maxW), series[0].At(maxW)))
	}
	return &Report{ID: "fig19", Title: "Window size per tree height", PaperRef: "Figure 19",
		Tables: []*stats.Table{stats.SeriesTable(
			fmt.Sprintf("Communication time, %dB to %d receivers, pkt 8000B", size, n), "window", series...)},
		Findings: findings}, nil
}

// runFig20 sweeps the tree height for small messages, exposing the
// user-level relay latency.
func runFig20(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	sizes := []int{1, 256, 8 * KB}
	if o.Quick {
		sizes = []int{1, 8 * KB}
	}
	heights := heightSweep(n, o.Quick)
	series, err := o.curves(ctx, grid("size=%dB (s)", sizes, heights, func(sz, h int) point {
		return o.mc(n, core.Config{Protocol: core.ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: h}, sz)
	})...)
	if err != nil {
		return nil, err
	}
	tiny := series[0]
	findings := []string{fmt.Sprintf(
		"small-message delay grows with height: H=1 %.2fms vs H=%d %.2fms — every chain hop is a user-level relay",
		1e3*tiny.At(1), n, 1e3*tiny.At(float64(n))),
		"tree-based protocols are not efficient for small messages compared to the ACK-based protocol (H=1)",
	}
	return &Report{ID: "fig20", Title: "Tree-based small messages", PaperRef: "Figure 20",
		Tables: []*stats.Table{stats.SeriesTable(
			fmt.Sprintf("Communication time to %d receivers, window 20", n), "tree height", series...)},
		Findings: findings}, nil
}

// runFig21 sweeps window × packet size at H=6.
func runFig21(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 500 * KB
	windows := []int{1, 2, 4, 6, 10, 15, 20, 30, 40, 50}
	packetSizes := []int{1300, 8000, 50000}
	h := min(6, n)
	if o.Quick {
		size = 150 * KB
		windows = []int{1, 6, 20}
		packetSizes = []int{1300, 50000}
	}
	series, err := o.curves(ctx, grid("pkt=%dB (s)", packetSizes, windows, func(ps, w int) point {
		return o.mc(n, core.Config{Protocol: core.ProtoTree, PacketSize: ps, WindowSize: w, TreeHeight: h}, size)
	})...)
	if err != nil {
		return nil, err
	}
	var findings []string
	for i, s := range series {
		bestW, bestT := s.MinY()
		findings = append(findings, fmt.Sprintf("pkt=%dB: best at window %d (%.3fs)", packetSizes[i], int(bestW), bestT))
	}
	if len(series) == 3 {
		_, mid := series[1].MinY()
		_, small := series[0].MinY()
		_, large := series[2].MinY()
		findings = append(findings, fmt.Sprintf(
			"the packet size must be chosen carefully: 8000B best (%.3fs) vs 1300B (%.3fs, per-packet overhead) and 50000B (%.3fs, pipeline stalls)",
			mid, small, large))
	}
	return &Report{ID: "fig21", Title: "Tree H=6: window × packet size", PaperRef: "Figure 21",
		Tables: []*stats.Table{stats.SeriesTable(
			fmt.Sprintf("Communication time, %dB to %d receivers, H=%d", size, n, h), "window", series...)},
		Findings: findings}, nil
}
