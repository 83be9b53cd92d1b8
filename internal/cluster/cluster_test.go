package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/unicast"
)

// run is the 3-argument shape most of these tests were written
// against, now a shim over the unified context-first Run API.
func run(ccfg Config, pcfg core.Config, size int) (*Result, error) {
	return Run(context.Background(), ccfg, ProtoSpec(pcfg), size)
}

// protoConfig builds a reasonable protocol config for the given protocol
// on n receivers.
func protoConfig(p core.Protocol, n int) core.Config {
	cfg := core.Config{
		Protocol:     p,
		NumReceivers: n,
		PacketSize:   8000,
		WindowSize:   20,
	}
	switch p {
	case core.ProtoNAK:
		cfg.PollInterval = 17
	case core.ProtoRing:
		cfg.WindowSize = n + 20
	case core.ProtoTree:
		cfg.TreeHeight = 3
	}
	return cfg
}

func TestAllProtocolsDeliverOnTestbed(t *testing.T) {
	for _, p := range []core.Protocol{core.ProtoACK, core.ProtoNAK, core.ProtoRing, core.ProtoTree} {
		for _, size := range []int{1, 500, 8000, 100000} {
			t.Run(fmt.Sprintf("%v/size=%d", p, size), func(t *testing.T) {
				res, err := run(Default(6), protoConfig(p, 6), size)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed || !res.Verified {
					t.Fatalf("completed=%v verified=%v", res.Completed, res.Verified)
				}
				if res.Elapsed <= 0 {
					t.Fatal("non-positive elapsed time")
				}
			})
		}
	}
}

func TestPaperScaleThirtyReceivers(t *testing.T) {
	// The full Figure 7 testbed: 30 receivers across two switches.
	res, err := run(Default(30), protoConfig(core.ProtoNAK, 30), 500*1024)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("message corrupted at paper scale")
	}
	// 500 KB at 100 Mbps is at least 41 ms of pure wire time; anything
	// under that violates physics, anything over 5x means the model has
	// a performance pathology.
	if res.Elapsed < 41*time.Millisecond {
		t.Errorf("elapsed %v is faster than the wire allows", res.Elapsed)
	}
	if res.Elapsed > 205*time.Millisecond {
		t.Errorf("elapsed %v is implausibly slow for NAK at 8 KB", res.Elapsed)
	}
}

func TestErrorFreeRunHasNoRetransmissions(t *testing.T) {
	for _, p := range []core.Protocol{core.ProtoACK, core.ProtoNAK, core.ProtoRing, core.ProtoTree} {
		res, err := run(Default(10), protoConfig(p, 10), 200000)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.SenderStats.Retransmissions != 0 {
			t.Errorf("%v: %d retransmissions on an error-free LAN (timeouts=%d)",
				p, res.SenderStats.Retransmissions, res.SenderStats.Timeouts)
		}
	}
}

func TestTable2ControlPacketCounts(t *testing.T) {
	// Validate the paper's Table 2 against simulation counters: control
	// packets per data packet in the error-free case.
	const n = 10
	size := 50 * 8000 // 50 packets
	for _, tc := range []struct {
		proto core.Protocol
		want  float64 // acceptable ratio of acks to data packets
		slack float64
	}{
		{core.ProtoACK, float64(n), 0.2},
		{core.ProtoNAK, float64(n) / 17, 0.5}, // poll interval 17
		{core.ProtoRing, 1, 0.25},             // +N on the last packet amortized
	} {
		res, err := run(Default(n), protoConfig(tc.proto, n), size)
		if err != nil {
			t.Fatalf("%v: %v", tc.proto, err)
		}
		data := float64(res.SenderStats.DataSent)
		acks := float64(res.SenderStats.AcksReceived)
		ratio := acks / data
		if ratio < tc.want*(1-tc.slack) || ratio > tc.want*(1+tc.slack) {
			t.Errorf("%v: acks/data = %.2f, want ≈ %.2f (Table 2)", tc.proto, ratio, tc.want)
		}
	}
	// Tree: the sender hears only chain heads — about N/H ack streams.
	cfg := protoConfig(core.ProtoTree, n)
	cfg.TreeHeight = 5
	res, err := run(Default(n), cfg, size)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.SenderStats.AcksReceived) / float64(res.SenderStats.DataSent)
	if ratio > float64(n)/5+0.5 {
		t.Errorf("tree H=5: sender acks/data = %.2f, want ≤ N/H = 2", ratio)
	}
}

func TestLossInjectionRecovers(t *testing.T) {
	for _, p := range []core.Protocol{core.ProtoACK, core.ProtoNAK, core.ProtoRing, core.ProtoTree} {
		ccfg := Default(5)
		ccfg.LossRate = 0.01
		ccfg.Seed = 77
		res, err := run(ccfg, protoConfig(p, 5), 300000)
		if err != nil {
			t.Fatalf("%v under loss: %v", p, err)
		}
		if !res.Verified {
			t.Errorf("%v: corrupted delivery under 1%% loss", p)
		}
	}
}

func TestTCPBaselineScalesLinearly(t *testing.T) {
	const size = 426502 // the paper's Figure 8 file
	t1, err := Run(context.Background(), Default(1), TCPSpec(unicast.DefaultConfig()), size)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Run(context.Background(), Default(4), TCPSpec(unicast.DefaultConfig()), size)
	if err != nil {
		t.Fatal(err)
	}
	if !t1.Verified || !t4.Verified {
		t.Fatal("tcp transfers corrupted")
	}
	ratio := float64(t4.Elapsed) / float64(t1.Elapsed)
	if ratio < 3.2 || ratio > 4.8 {
		t.Errorf("TCP to 4 receivers took %.2fx one receiver, want ≈ 4x (sequential)", ratio)
	}
}

func TestMulticastBeatsTCPForManyReceivers(t *testing.T) {
	// The paper's headline (Figure 8): multicast time is nearly flat in
	// the number of receivers, TCP is linear.
	const size = 426502
	tcp, err := Run(context.Background(), Default(10), TCPSpec(unicast.DefaultConfig()), size)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := run(Default(10), protoConfig(core.ProtoACK, 10), size)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Elapsed >= tcp.Elapsed {
		t.Errorf("ACK multicast (%v) not faster than sequential TCP (%v) at 10 receivers",
			mc.Elapsed, tcp.Elapsed)
	}
}

func TestRawUDPBaseline(t *testing.T) {
	res, err := Run(context.Background(), Default(8), RawUDPSpec(8000), 32000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.Verified {
		t.Fatalf("raw UDP on a clean network: completed=%v verified=%v", res.Completed, res.Verified)
	}
}

func TestSharedBusTopology(t *testing.T) {
	ccfg := Default(5)
	ccfg.Topology = SharedBus
	res, err := run(ccfg, protoConfig(core.ProtoNAK, 5), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("shared-bus delivery corrupted")
	}
}

func TestSingleSwitchTopology(t *testing.T) {
	ccfg := Default(5)
	ccfg.Topology = SingleSwitch
	res, err := run(ccfg, protoConfig(core.ProtoACK, 5), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("single-switch delivery corrupted")
	}
}

func TestDeadlineAborts(t *testing.T) {
	ccfg := Default(3)
	ccfg.Deadline = time.Millisecond // absurdly short
	_, err := run(ccfg, protoConfig(core.ProtoACK, 3), 5_000_000)
	if err == nil {
		t.Fatal("5 MB in 1 ms of virtual time should have hit the deadline")
	}
}
