package cluster

import (
	"context"
	"testing"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/unicast"
)

// TestCalibrationReport prints the simulated values for the paper's key
// calibration anchors when run with -v. The hard assertions are loose
// sanity bands; EXPERIMENTS.md records the precise comparison.
func TestCalibrationReport(t *testing.T) {
	report := func(name string, got time.Duration, paper time.Duration) {
		t.Logf("%-40s sim=%-12v paper≈%v", name, got.Round(100*time.Microsecond), paper)
	}

	// Figure 8 anchors: 426502-byte file.
	tcp1, err := Run(context.Background(), Default(1), TCPSpec(unicast.DefaultConfig()), 426502)
	if err != nil {
		t.Fatal(err)
	}
	report("fig8 TCP 1 receiver", tcp1.Elapsed, 40*time.Millisecond)

	ack := core.Config{Protocol: core.ProtoACK, PacketSize: 50000, WindowSize: 2}
	m1, err := run(Default(1), ack, 426502)
	if err != nil {
		t.Fatal(err)
	}
	report("fig8 ACK multicast 1 receiver", m1.Elapsed, 60*time.Millisecond)
	m30, err := run(Default(30), ack, 426502)
	if err != nil {
		t.Fatal(err)
	}
	report("fig8 ACK multicast 30 receivers", m30.Elapsed, 64*time.Millisecond)
	tcp30, err := Run(context.Background(), Default(30), TCPSpec(unicast.DefaultConfig()), 426502)
	if err != nil {
		t.Fatal(err)
	}
	report("fig8 TCP 30 receivers", tcp30.Elapsed, 1200*time.Millisecond)

	// The headline shape: TCP linear, multicast flat.
	if float64(m30.Elapsed) > 1.6*float64(m1.Elapsed) {
		t.Errorf("multicast not flat: 30 rcvrs %v vs 1 rcvr %v", m30.Elapsed, m1.Elapsed)
	}
	if float64(tcp30.Elapsed) < 5*float64(m30.Elapsed) {
		t.Errorf("TCP(30)=%v not clearly worse than multicast(30)=%v", tcp30.Elapsed, m30.Elapsed)
	}

	// Figure 9 anchor: raw UDP vs ACK at 32 KB.
	udp, err := Run(context.Background(), Default(30), RawUDPSpec(32768), 32768)
	if err != nil {
		t.Fatal(err)
	}
	report("fig9 raw UDP 32KB", udp.Elapsed, 3*time.Millisecond)
	ackSmall := core.Config{Protocol: core.ProtoACK, PacketSize: 32768, WindowSize: 2}
	a32, err := run(Default(30), ackSmall, 32768)
	if err != nil {
		t.Fatal(err)
	}
	report("fig9 ACK 32KB", a32.Elapsed, 6500*time.Microsecond)
	if a32.Elapsed <= udp.Elapsed {
		t.Error("reliable ACK protocol not slower than raw UDP")
	}

	// Figure 11a anchor: 1-byte message.
	tiny := core.Config{Protocol: core.ProtoACK, PacketSize: 50000, WindowSize: 2}
	b1, err := run(Default(1), tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	report("fig11a 1B 1 receiver", b1.Elapsed, 400*time.Microsecond)
	b30, err := run(Default(30), tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	report("fig11a 1B 30 receivers", b30.Elapsed, 2*time.Millisecond)

	// Table 3 anchors: 2 MB at each protocol's best parameters.
	const twoMB = 2 * 1024 * 1024
	type cand struct {
		name  string
		cfg   core.Config
		paper float64 // Mbps
	}
	cands := []cand{
		{"table3 ACK 50K/w5", core.Config{Protocol: core.ProtoACK, PacketSize: 50000, WindowSize: 5}, 68.0},
		{"table3 NAK 8K/w50/poll43", core.Config{Protocol: core.ProtoNAK, PacketSize: 8000, WindowSize: 50, PollInterval: 43}, 89.7},
		{"table3 ring 8K/w50", core.Config{Protocol: core.ProtoRing, PacketSize: 8000, WindowSize: 50}, 84.6},
		{"table3 tree 8K/w20/H6", core.Config{Protocol: core.ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: 6}, 77.3},
		{"table3 tree 8K/w20/H15", core.Config{Protocol: core.ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: 15}, 81.2},
	}
	var mbps []float64
	for _, cd := range cands {
		res, err := run(Default(30), cd.cfg, twoMB)
		if err != nil {
			t.Fatalf("%s: %v", cd.name, err)
		}
		mbps = append(mbps, res.ThroughputMbps)
		t.Logf("%-40s sim=%6.1f Mbps paper=%.1f Mbps (retrans=%d timeouts=%d)",
			cd.name, res.ThroughputMbps, cd.paper, res.SenderStats.Retransmissions, res.SenderStats.Timeouts)
	}
	// The paper's ordering: NAK >= ring >= tree >= ACK (ties allowed,
	// small tolerance for simulation noise).
	tol := 0.98
	if mbps[1] < mbps[2]*tol {
		t.Errorf("ordering: NAK %.1f < ring %.1f", mbps[1], mbps[2])
	}
	if mbps[2] < mbps[4]*tol {
		t.Errorf("ordering: ring %.1f < tree(H15) %.1f", mbps[2], mbps[4])
	}
	if mbps[4] < mbps[0]*tol {
		t.Errorf("ordering: tree(H15) %.1f < ACK %.1f", mbps[4], mbps[0])
	}
	if mbps[0] > mbps[1] {
		t.Errorf("ordering: ACK %.1f beats NAK %.1f", mbps[0], mbps[1])
	}
}
