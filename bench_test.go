package rmcast

// One benchmark per paper table and figure (the -exp ids of
// cmd/rmbench), plus direct protocol benchmarks that report the
// simulated throughput alongside the harness wall time. Benchmarks run
// the experiments in Quick mode so `go test -bench=.` stays tractable;
// `go run ./cmd/rmbench -exp all` regenerates the full paper-scale
// sweeps.

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := RunExperiment(context.Background(), id, ExperimentOptions{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

func BenchmarkAblationMedia(b *testing.B)    { benchExperiment(b, "ablation_media") }
func BenchmarkAblationSuppress(b *testing.B) { benchExperiment(b, "ablation_suppress") }
func BenchmarkAblationLoss(b *testing.B)     { benchExperiment(b, "ablation_loss") }
func BenchmarkAblationRelay(b *testing.B)    { benchExperiment(b, "ablation_relay") }
func BenchmarkAblationGoBackN(b *testing.B)  { benchExperiment(b, "ablation_gobackn") }
func BenchmarkAblationNakSupp(b *testing.B)  { benchExperiment(b, "ablation_naksupp") }
func BenchmarkAblationPacing(b *testing.B)   { benchExperiment(b, "ablation_pacing") }
func BenchmarkExtStraggler(b *testing.B)     { benchExperiment(b, "ext_straggler") }
func BenchmarkExtGigabit(b *testing.B)       { benchExperiment(b, "ext_gigabit") }

// benchProtocol runs one paper-scale transfer per iteration and reports
// the simulated goodput so regressions in protocol behavior (not just
// simulator speed) are visible.
func benchProtocol(b *testing.B, cfg Config, size int) {
	b.Helper()
	cfg.NumReceivers = 30
	var mbps float64
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), DefaultSim(30), ProtocolSpec(cfg), size)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verified {
			b.Fatal("corrupted delivery")
		}
		mbps = res.ThroughputMbps
	}
	b.ReportMetric(mbps, "sim-Mbps")
	b.SetBytes(int64(size))
}

const benchMB = 2 * 1024 * 1024

func BenchmarkProtoACK2MB(b *testing.B) {
	benchProtocol(b, Config{Protocol: ProtoACK, PacketSize: 50000, WindowSize: 5}, benchMB)
}

func BenchmarkProtoNAK2MB(b *testing.B) {
	benchProtocol(b, Config{Protocol: ProtoNAK, PacketSize: 8000, WindowSize: 50, PollInterval: 43}, benchMB)
}

func BenchmarkProtoRing2MB(b *testing.B) {
	benchProtocol(b, Config{Protocol: ProtoRing, PacketSize: 8000, WindowSize: 50}, benchMB)
}

func BenchmarkProtoTree2MB(b *testing.B) {
	benchProtocol(b, Config{Protocol: ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: 15}, benchMB)
}

// benchScaled runs one 1024-receiver 64KB transfer per iteration on a
// 32-leaf gigabit fat-tree — the scale where the sharded engine earns
// its keep — as serial/sharded sub-benchmarks, so `benchstat` can
// compare the two engines executing the byte-identical session.
func benchScaled(b *testing.B, proto Protocol) {
	const (
		n    = 1024
		size = 64 * 1024
	)
	spec, err := ParseTopo("fattree:4x32x33@1g")
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{0, 4} {
		name := "serial"
		if shards > 1 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			sim := DefaultSim(n)
			sim.Topo = &spec
			sim.Shards = shards
			cfg := Config{Protocol: proto, NumReceivers: n, PacketSize: 1000}
			if proto == ProtoTree {
				cfg.WindowSize = 20
			}
			// Ring window and partition count, tree chain height and
			// layout: derived from the fabric's switch domains.
			cfg = ScaleForTopology(cfg, sim)
			var mbps float64
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), sim, ProtocolSpec(cfg), size)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Verified {
					b.Fatal("corrupted delivery")
				}
				mbps = res.ThroughputMbps
			}
			b.ReportMetric(mbps, "sim-Mbps")
			b.SetBytes(size)
		})
	}
}

func BenchmarkProtoTree1024(b *testing.B) { benchScaled(b, ProtoTree) }
func BenchmarkProtoRing1024(b *testing.B) { benchScaled(b, ProtoRing) }

func BenchmarkSmallMessage30Receivers(b *testing.B) {
	benchProtocol(b, Config{Protocol: ProtoACK, PacketSize: 50000, WindowSize: 2}, 1)
}

func BenchmarkTCPBaseline(b *testing.B) {
	const size = 426502
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), DefaultSim(30), TCPSpec(DefaultTCP()), size)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verified {
			b.Fatal("corrupted delivery")
		}
	}
	b.SetBytes(int64(size) * 30)
}

func BenchmarkCollectiveBcast(b *testing.B) {
	comm, err := NewComm(DefaultSim(8), Config{
		Protocol: ProtoNAK, PacketSize: 8000, WindowSize: 20, PollInterval: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 64*1024)
	var d time.Duration
	for i := 0; i < b.N; i++ {
		var err error
		d, err = comm.Bcast(i%comm.Size(), msg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.Seconds()*1e3, "sim-ms/op")
}
