package exp

import (
	"context"
	"fmt"

	"rmcast/internal/core"
	"rmcast/internal/stats"
)

// runTable1 renders the paper's qualitative Table 1 and backs the
// memory column with measured peak buffer requirements.
func runTable1(ctx context.Context, o Options) (*Report, error) {
	t := &stats.Table{
		Title:  "Memory requirement and implementation complexity",
		Header: []string{"protocol", "memory requirement", "implementation complexity"},
	}
	for _, row := range core.Table1() {
		t.AddRow(row.Protocol.String(), row.Memory.String(), row.Complexity.String())
	}
	t.Notes = append(t.Notes,
		"memory: NAK/ring need window buffers far larger than ACK's ~2 packets (Figures 10, 13, 16)",
		"complexity: ring's rotation and tree's chain relay dwarf the ACK/NAK state machines")
	return &Report{ID: "table1", Title: "Protocol characteristics", PaperRef: "Table 1",
		Tables: []*stats.Table{t}}, nil
}

// runTable2 prints the analytic Table 2 and validates it against
// simulation counters from an error-free run of each protocol.
func runTable2(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	poll := 10
	h := min(6, n)
	analytic := &stats.Table{
		Title:  fmt.Sprintf("Analytic (N=%d, poll i=%d, tree H=%d)", n, poll, h),
		Header: []string{"protocol", "sender recvs/pkt", "rcvr sends/pkt", "rcvr recvs/pkt", "control pkts/pkt"},
	}
	for _, row := range core.Table2(n, poll, h) {
		analytic.AddRow(row.Protocol.String(), row.SenderRecvs, row.ReceiverSends, row.ReceiverRecvs, row.ControlPackets)
	}

	// Measured: control packets the sender actually processed per data
	// packet in an error-free transfer.
	size := 60 * 8000
	if o.Quick {
		size = 20 * 8000
	}
	measured := &stats.Table{
		Title:  "Measured on the simulated testbed (acks processed by sender / data packets)",
		Header: []string{"protocol", "analytic", "measured"},
	}
	// Each config is complete (NumReceivers included), so the analytic
	// column below reads the load of exactly the session that ran.
	cfgs := []core.Config{
		{Protocol: core.ProtoACK, NumReceivers: n, PacketSize: 8000, WindowSize: 8},
		{Protocol: core.ProtoNAK, NumReceivers: n, PacketSize: 8000, WindowSize: 20, PollInterval: poll},
		{Protocol: core.ProtoRing, NumReceivers: n, PacketSize: 8000, WindowSize: n + 10},
		{Protocol: core.ProtoTree, NumReceivers: n, PacketSize: 8000, WindowSize: 20, TreeHeight: h},
	}
	pts := make([]point, len(cfgs))
	for i, pcfg := range cfgs {
		pts[i] = o.mc(n, pcfg, size)
	}
	res, err := o.run(ctx, pts)
	if err != nil {
		return nil, err
	}
	var findings []string
	for i, pcfg := range cfgs {
		ratio := float64(res[i].SenderStats.AcksReceived) / float64(res[i].SenderStats.DataSent)
		want := core.LoadFor(pcfg).SenderRecvs
		measured.AddRow(pcfg.Protocol.String(), want, ratio)
		findings = append(findings, fmt.Sprintf("%v: sender processed %.2f acks per data packet (Table 2 predicts %.2f)",
			pcfg.Protocol, ratio, want))
	}
	return &Report{ID: "table2", Title: "Per-packet load", PaperRef: "Table 2",
		Tables: []*stats.Table{analytic, measured}, Findings: findings}, nil
}

// runTable3 reruns the paper's headline comparison: 2 MB at each
// protocol's best parameters.
func runTable3(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 2 * MB
	if o.Quick {
		size = 512 * KB
	}
	type row struct {
		name  string
		cfg   core.Config
		paper float64
	}
	h6, h15 := min(6, n), min(15, n)
	rows := []row{
		{"ACK-based", core.Config{Protocol: core.ProtoACK, PacketSize: 50000, WindowSize: 5}, 68.0},
		{"NAK-based", core.Config{Protocol: core.ProtoNAK, PacketSize: 8000, WindowSize: 50, PollInterval: 43}, 89.7},
		{"Ring-based", core.Config{Protocol: core.ProtoRing, PacketSize: 8000, WindowSize: n + 20}, 84.6},
		{fmt.Sprintf("Tree-based (H=%d)", h6), core.Config{Protocol: core.ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: h6}, 77.3},
		{fmt.Sprintf("Tree-based (H=%d)", h15), core.Config{Protocol: core.ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: h15}, 81.2},
	}
	t := &stats.Table{
		Title:  fmt.Sprintf("Throughput sending %d bytes to %d receivers", size, n),
		Header: []string{"protocol", "throughput (Mbps)", "paper (Mbps)"},
	}
	pts := make([]point, len(rows))
	for i, r := range rows {
		pts[i] = o.mc(n, r.cfg, size)
	}
	res, err := o.run(ctx, pts)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.AddRow(r.name, res[i].ThroughputMbps, r.paper)
	}
	ack, nak, ring, tree := res[0], res[1], res[2], res[4]
	findings := []string{fmt.Sprintf(
		"large-message ordering NAK >= ring >= tree >= ACK: NAK=%.1f ring=%.1f tree(H=%d)=%.1f ACK=%.1f",
		nak.ThroughputMbps, ring.ThroughputMbps, h15, tree.ThroughputMbps, ack.ThroughputMbps)}
	return &Report{ID: "table3", Title: "2 MB throughput comparison", PaperRef: "Table 3",
		Tables: []*stats.Table{t}, Findings: findings}, nil
}
