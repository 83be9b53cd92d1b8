package rmcast

import (
	"context"
	"testing"
	"time"
)

// The facade tests exercise the public API end to end; deep behavior is
// covered by the internal packages' suites.

func TestSimulateFacade(t *testing.T) {
	res, err := Run(context.Background(), DefaultSim(6), ProtocolSpec(Config{
		Protocol: ProtoNAK, NumReceivers: 6,
		PacketSize: 8000, WindowSize: 20, PollInterval: 17,
	}), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.Verified {
		t.Fatalf("completed=%v verified=%v", res.Completed, res.Verified)
	}
	if res.ThroughputMbps <= 0 || res.ThroughputMbps > 100 {
		t.Errorf("implausible throughput %.1f Mbps on a 100 Mbps LAN", res.ThroughputMbps)
	}
}

func TestSimulateTCPFacade(t *testing.T) {
	res, err := Run(context.Background(), DefaultSim(3), TCPSpec(DefaultTCP()), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("tcp baseline corrupted delivery")
	}
}

func TestSimulateRawUDPFacade(t *testing.T) {
	res, err := Run(context.Background(), DefaultSim(3), RawUDPSpec(8000), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("raw UDP baseline did not complete on a clean network")
	}
}

// TestRunFacade exercises the unified Run entry point across all three
// spec kinds and checks each result carries a populated Metrics
// snapshot — the per-protocol guarantee the metrics layer makes.
func TestRunFacade(t *testing.T) {
	ctx := context.Background()
	specs := map[string]Spec{
		"ack": ProtocolSpec(Config{
			Protocol: ProtoACK, NumReceivers: 4, PacketSize: 8000, WindowSize: 4,
		}),
		"tcp":    TCPSpec(DefaultTCP()),
		"rawudp": RawUDPSpec(8000),
	}
	for name, spec := range specs {
		res, err := Run(ctx, DefaultSim(4), spec, 100_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Metrics.TotalSent() == 0 || res.Metrics.TotalReceived() == 0 {
			t.Errorf("%s: Metrics not populated: %+v", name, res.Metrics)
		}
		if res.Metrics.SenderBusy <= 0 {
			t.Errorf("%s: no sender CPU-busy time recorded", name)
		}
		if len(res.Metrics.Completion) == 0 {
			t.Errorf("%s: no completion latencies recorded", name)
		}
	}
	if _, err := Run(ctx, DefaultSim(2), Spec{}, 100); err == nil {
		t.Error("zero Spec accepted")
	}
}

// TestRunCanceledFacade checks a canceled context aborts a simulation.
func TestRunCanceledFacade(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := ProtocolSpec(Config{
		Protocol: ProtoNAK, NumReceivers: 20, PacketSize: 1000, WindowSize: 20, PollInterval: 17,
	})
	if _, err := Run(ctx, DefaultSim(20), spec, 4<<20); err == nil {
		t.Error("canceled run returned no error")
	}
}

func TestParseProtocolFacade(t *testing.T) {
	p, err := ParseProtocol("ring")
	if err != nil || p != ProtoRing {
		t.Fatalf("ParseProtocol(ring) = %v, %v", p, err)
	}
}

func TestExperimentRegistryFacade(t *testing.T) {
	exps := Experiments()
	want := map[string]bool{
		"table1": true, "table2": true, "table3": true,
		"fig8": true, "fig9": true, "fig10": true, "fig11": true,
		"fig12": true, "fig13": true, "fig14": true, "fig15": true,
		"fig16": true, "fig17": true, "fig18": true, "fig19": true,
		"fig20": true, "fig21": true,
		"ablation_media": true, "ablation_suppress": true,
		"ablation_loss": true, "ablation_relay": true,
	}
	for _, e := range exps {
		delete(want, e.ID)
	}
	if len(want) != 0 {
		t.Errorf("missing experiments: %v", want)
	}
	rep, err := RunExperiment(context.Background(), "table1", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table1" {
		t.Errorf("report id = %q", rep.ID)
	}
	if _, err := RunExperiment(context.Background(), "bogus", ExperimentOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCommFacade(t *testing.T) {
	comm, err := NewComm(DefaultSim(3), Config{
		Protocol: ProtoACK, PacketSize: 4000, WindowSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := comm.Bcast(0, make([]byte, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > time.Second {
		t.Errorf("implausible bcast time %v", d)
	}
}

// TestPaperHeadlineOrdering is the repository's single most important
// assertion: the paper's final conclusion holds on this implementation.
// For large messages: NAK ≥ ring ≥ tree ≥ ACK.
func TestPaperHeadlineOrdering(t *testing.T) {
	const n, size = 30, 2 * 1024 * 1024
	run := func(cfg Config) float64 {
		t.Helper()
		cfg.NumReceivers = n
		res, err := Run(context.Background(), DefaultSim(n), ProtocolSpec(cfg), size)
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputMbps
	}
	nak := run(Config{Protocol: ProtoNAK, PacketSize: 8000, WindowSize: 50, PollInterval: 43})
	ring := run(Config{Protocol: ProtoRing, PacketSize: 8000, WindowSize: 50})
	tree := run(Config{Protocol: ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: 15})
	ack := run(Config{Protocol: ProtoACK, PacketSize: 50000, WindowSize: 5})
	const tol = 0.98 // ties within 2% satisfy the paper's ≥
	if nak < ring*tol || ring < tree*tol || tree < ack*tol {
		t.Errorf("ordering violated: NAK=%.1f ring=%.1f tree=%.1f ACK=%.1f Mbps", nak, ring, tree, ack)
	}
	if ack >= nak {
		t.Errorf("ACK (%.1f) should be strictly worst vs NAK (%.1f)", ack, nak)
	}
}

// TestSmallMessageEquivalence checks the paper's small-message claim:
// ACK, NAK and ring behave identically for single-packet messages.
func TestSmallMessageEquivalence(t *testing.T) {
	const n = 12
	times := map[Protocol]time.Duration{}
	for _, cfg := range []Config{
		{Protocol: ProtoACK, PacketSize: 8000, WindowSize: 2},
		{Protocol: ProtoNAK, PacketSize: 8000, WindowSize: 20, PollInterval: 17},
		{Protocol: ProtoRing, PacketSize: 8000, WindowSize: n + 5},
	} {
		cfg.NumReceivers = n
		res, err := Run(context.Background(), DefaultSim(n), ProtocolSpec(cfg), 256)
		if err != nil {
			t.Fatal(err)
		}
		times[cfg.Protocol] = res.Elapsed
	}
	base := times[ProtoACK]
	for p, d := range times {
		ratio := float64(d) / float64(base)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%v small-message time %v deviates from ACK's %v", p, d, base)
		}
	}
	// And the tree with real height is slower (user-level relay).
	cfg := Config{Protocol: ProtoTree, NumReceivers: n, PacketSize: 8000, WindowSize: 20, TreeHeight: n}
	res, err := Run(context.Background(), DefaultSim(n), ProtocolSpec(cfg), 256)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= base {
		t.Errorf("tree H=%d (%v) should be slower than ACK (%v) for small messages", n, res.Elapsed, base)
	}
}
