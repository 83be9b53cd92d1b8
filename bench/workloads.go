package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/live"
	"rmcast/internal/rng"
	"rmcast/internal/topo"
	"rmcast/internal/workload"
)

// params is what one invocation fixes for every workload it runs.
type params struct {
	seed    uint64
	seconds float64
	// smoke shrinks every workload to one small operation and every
	// isolated-layer driver to a handful of iterations: the size the
	// tests run, never a size whose numbers mean anything.
	smoke bool
}

// size picks the full or the smoke value of a workload dimension.
func (p params) size(full, smoke int) int {
	if p.smoke {
		return smoke
	}
	return full
}

// simTransfer is one simulated transfer: a testbed, a protocol
// configuration and the message to move. Every input the program under
// test sees is in here; the seed is not.
type simTransfer struct {
	label string // protocol name, used for per-protocol detail rows
	ccfg  cluster.Config
	pcfg  core.Config
	msg   []byte
}

// outcome is what one operation produced.
type outcome struct {
	dur       time.Duration // the timed part of the operation
	transfers int
	failed    int
	why       string // first failure, for the report
	// sims and loops keep the operation's raw results so the traced
	// pass can read the exact counts off the real run.
	sims  []*cluster.Result
	loops []*live.LoopResult
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.why == "" {
		o.why = fmt.Sprintf(format, args...)
	}
}

// instance is a workload after set-up: inputs generated, program
// warmed, ready to run operations one at a time (closed loop, one in
// flight).
type instance struct {
	msgBytes int // payload bytes of one copy of the message, per transfer
	op       func(i int) outcome
	close    func()
	// sims is the operation as simulated transfers: the operation itself
	// for sim_* workloads, its analogue on the paper testbed for live_*
	// ones. The traced pass replays it for the sim/ethernet/ipnet/cluster
	// counts and the null-Env core rig takes its configurations from it.
	sims []simTransfer
}

// workloadDef describes one named workload.
type workloadDef struct {
	name string
	why  string
	op   string // what one operation is, for the report
	// tailPct is the tail percentile reported as transfer_ms_tail: the
	// highest of 75/90/99 that leaves at least ten samples beyond it at
	// the operation count run_seconds yields on the seed box. It is
	// fixed per workload so the metric never changes meaning between
	// two runs that happen to complete different operation counts.
	tailPct float64
	// deterministic workloads repeat their counts bit-for-bit at a
	// seed; any failure on them is a bug, not weather.
	deterministic bool
	setup         func(p params, tr *tracer, mix *mixCounter) (*instance, error)
}

var workloads = []workloadDef{
	{
		name: "sim_bulk",
		why: "2 MiB to 30 receivers under all four protocols: 6-34 IP fragments per packet and 60 MB of receiver " +
			"buffers make it the byte-moving workload (ipnet, ethernet, sim queue, core's payload copies)",
		op:            "one round: the same message through cluster.Run once under each of ack, nak, ring, tree",
		tailPct:       75,
		deterministic: true,
		setup:         setupSimBulk,
	},
	{
		name: "sim_small",
		why: "128 KiB log stream in 512-byte packets, wire v1: one frame per packet bypasses fragmentation, so " +
			"per-packet cost in packet, core, window and sim is the whole bill; bypass workload for v2-only changes",
		op: "one nak transfer to 30 receivers",
		// p99 would leave a dozen samples beyond it in run_seconds on the
		// seed box and fewer whenever the host is in a slow phase.
		tailPct:       90,
		deterministic: true,
		setup: func(p params, tr *tracer, mix *mixCounter) (*instance, error) {
			return setupSimSmall(p, tr, mix, false)
		},
	},
	{
		name: "sim_small_v2",
		why: "sim_small with WireV2: same layers used differently, flate + CRC in packet/v2 and wire.Codec " +
			"coalescing do most of the work; a v2 codec gain must show here and nowhere else",
		op:            "one nak transfer to 30 receivers, wire format v2",
		tailPct:       75,
		deterministic: true,
		setup:         func(p params, tr *tracer, mix *mixCounter) (*instance, error) { return setupSimSmall(p, tr, mix, true) },
	},
	{
		name: "sim_scale",
		why: "64 KiB to 1024 receivers on a fat-tree: few packets, many peers, so cluster.New/topo construction, " +
			"the allocation roll call and per-receiver sender state dominate, the opposite mix of sim_bulk",
		op:            "one round: the same message once under tree and once under ring, serial engine",
		tailPct:       75,
		deterministic: true,
		setup:         setupSimScale,
	},
	{
		name: "live_loop",
		why: "full live.Node stack over the deterministic loopback net with 1% loss: onWire, decode, address " +
			"learning, timers, NAK/RTO/go-back-N, no kernel and no goroutines; resolves small per-packet gains",
		op:            "one round: 256 KiB to 8 receivers via live.RunLoopScenario once per protocol",
		tailPct:       90,
		deterministic: true,
		setup:         setupLiveLoop,
	},
	{
		name: "live_udp_bulk",
		why: "4 MiB over real UDP multicast sockets on host loopback, rmnode defaults: kernel syscalls, the " +
			"reader's per-datagram copy and the channel hand-off dominate while protocol CPU is small",
		op:            "one Node.Send to 2 receivers, timed call to return",
		tailPct:       90,
		deterministic: false,
		setup:         setupLiveUDP,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// seededBytes is the incompressible message generator: n bytes that are
// a pure function of seed.
func seededBytes(seed uint64, n int) []byte {
	r := rng.New(rng.Mix(seed, 0x6D7367)) // "msg"
	b := make([]byte, n+8)
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	return b[:n]
}

// runSim executes one simulated transfer and checks it.
func runSim(t simTransfer, tr *tracer, mix *mixCounter, out *outcome) {
	ccfg := t.ccfg
	ccfg.Message = t.msg
	if mix != nil {
		ccfg.Trace = mix.buffer(false)
	}
	id := tr.begin("cluster.Run")
	res, err := cluster.Run(context.Background(), ccfg, cluster.ProtoSpec(t.pcfg), len(t.msg))
	tr.end(id)
	out.transfers++
	switch {
	case err != nil:
		out.fail("%s: %v", t.label, err)
	case !res.Completed || !res.Verified:
		out.fail("%s: completed=%v verified=%v", t.label, res.Completed, res.Verified)
	case len(res.Delivered) != ccfg.NumReceivers:
		out.fail("%s: %d of %d receivers delivered", t.label, len(res.Delivered), ccfg.NumReceivers)
	}
	if res != nil {
		out.sims = append(out.sims, res)
	}
}

// simInstance turns a transfer list into a workload instance whose
// operation runs the list once, after warm operations that grow the
// runtime's heap and the program's pools to steady state.
func simInstance(transfers []simTransfer, warm int, tr *tracer, mix *mixCounter) (*instance, error) {
	in := &instance{
		msgBytes: len(transfers[0].msg),
		sims:     transfers,
		close:    func() {},
	}
	in.op = func(int) outcome {
		var out outcome
		t0 := time.Now()
		for _, t := range transfers {
			runSim(t, tr, mix, &out)
		}
		out.dur = time.Since(t0)
		return out
	}
	return in.warmed(warm)
}

// warmed runs n warm-up operations (indices -1, -2, ...) and hands the
// instance back, or closes it and reports the first failure.
func (in *instance) warmed(n int) (*instance, error) {
	for i := 0; i < n; i++ {
		if out := in.op(-1 - i); out.failed > 0 {
			in.close()
			return nil, fmt.Errorf("warm-up: %s", out.why)
		}
	}
	return in, nil
}

func setupSimBulk(p params, tr *tracer, mix *mixCounter) (*instance, error) {
	msg := seededBytes(p.seed, p.size(2<<20, 32<<10))
	ccfg := cluster.Default(30)
	return simInstance([]simTransfer{
		{"ack", ccfg, core.Config{Protocol: core.ProtoACK, PacketSize: 50000, WindowSize: 5}, msg},
		{"nak", ccfg, core.Config{Protocol: core.ProtoNAK, PacketSize: 8000, WindowSize: 50, PollInterval: 43}, msg},
		{"ring", ccfg, core.Config{Protocol: core.ProtoRing, PacketSize: 8000, WindowSize: 50}, msg},
		{"tree", ccfg, core.Config{Protocol: core.ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: 15}, msg},
	}, 1, tr, mix)
}

func setupSimSmall(p params, tr *tracer, mix *mixCounter, v2 bool) (*instance, error) {
	msg := workload.Logs(p.seed, p.size(128<<10, 8<<10))
	ccfg := cluster.Default(30)
	pcfg := core.Config{Protocol: core.ProtoNAK, PacketSize: 512, WindowSize: 32, PollInterval: 11}
	if v2 {
		pcfg.WireV2 = true
	} else {
		ccfg.CountWire = true
	}
	warm := 3
	if v2 || p.smoke {
		warm = 1 // a v2 operation is twenty v1 operations long
	}
	return simInstance([]simTransfer{{"nak", ccfg, pcfg, msg}}, warm, tr, mix)
}

// scaleTransfers is the sim_scale round; the shard and cluster rigs
// borrow its fabric.
func scaleTransfers(p params) ([]simTransfer, error) {
	n, fabric := 1024, "fattree:4x32x33@1g"
	if p.smoke {
		n, fabric = 64, "fattree:2x4x17@1g"
	}
	spec, err := topo.Parse(fabric)
	if err != nil {
		return nil, err
	}
	msg := seededBytes(p.seed, p.size(64<<10, 8<<10))
	ccfg := cluster.Default(n)
	ccfg.Topo = &spec
	var transfers []simTransfer
	for _, proto := range []core.Protocol{core.ProtoTree, core.ProtoRing} {
		pcfg := core.Config{Protocol: proto, NumReceivers: n, PacketSize: 1000}
		if proto == core.ProtoTree {
			pcfg.WindowSize = 20
		}
		// Chain height and layout, ring count and window: derived from the
		// fabric's switch domains, as rmsim and the scale experiment do.
		transfers = append(transfers, simTransfer{proto.String(), ccfg, cluster.ScaleForTopology(pcfg, ccfg), msg})
	}
	return transfers, nil
}

func setupSimScale(p params, tr *tracer, mix *mixCounter) (*instance, error) {
	transfers, err := scaleTransfers(p)
	if err != nil {
		return nil, err
	}
	return simInstance(transfers, 1, tr, mix)
}

// analogue is a live transfer as a simulated one: the same protocol
// configuration on the paper testbed cut to the group's size, except
// that timeouts stay fixed — the simulator's calibration pins the
// fixed-timeout behaviour, and an RTT-estimated timer tuned for a
// sub-millisecond loopback path fires spuriously behind a 100 Mbit/s
// link's queue.
func analogue(pcfg core.Config, msg []byte) simTransfer {
	pcfg.AdaptiveRTO = false
	return simTransfer{pcfg.Protocol.String(), cluster.Default(pcfg.NumReceivers), pcfg, msg}
}

// lossPatterns is how many distinct loss patterns per protocol
// live_loop draws from.
const lossPatterns = 64

// lossSeed picks the loss pattern of operation i's k'th transfer. The
// patterns are a fixed population and the workload seed chooses where
// in it a run starts, so operations differ by index and runs by seed,
// but every run long enough to go round the cycle measures the same
// population. Go-back-N repair is heavy-tailed — one unlucky pattern
// resends whole windows — and when every seed drew its own patterns,
// allocations per transfer spread 3.5% from seed to seed over 450-round
// runs, more than the bound on that metric. Warm-up operations
// (negative i) use the same patterns at every seed, so set-up time does
// not depend on the draw either.
func lossSeed(seed uint64, i, k int) uint64 {
	pattern := uint64(i+lossPatterns) % lossPatterns
	if i >= 0 {
		pattern = (uint64(i) + rng.Mix(seed)) % lossPatterns
	}
	return rng.Mix(0x6C6F7373, pattern, uint64(k)) // "loss"
}

// liveLoopConfigs is the live_loop round, in run order.
func liveLoopConfigs() []core.Config {
	base := core.Config{NumReceivers: 8, PacketSize: 1400, WindowSize: 32, AdaptiveRTO: true}
	var out []core.Config
	for _, proto := range []core.Protocol{core.ProtoACK, core.ProtoNAK, core.ProtoRing, core.ProtoTree} {
		c := base
		c.Protocol = proto
		switch proto {
		case core.ProtoNAK:
			c.PollInterval = 8
		case core.ProtoTree:
			c.TreeHeight = 4
		}
		out = append(out, c)
	}
	return out
}

func setupLiveLoop(p params, tr *tracer, mix *mixCounter) (*instance, error) {
	size := p.size(256<<10, 32<<10)
	cfgs := liveLoopConfigs()
	in := &instance{msgBytes: size, close: func() {}}
	for _, c := range cfgs {
		// RunLoopScenario transfers its own fixed pattern, so the analogue
		// moves cluster.MakeMessage, which is the same bytes.
		in.sims = append(in.sims, analogue(c, cluster.MakeMessage(size)))
	}
	in.op = func(i int) outcome {
		var out outcome
		t0 := time.Now()
		for k, c := range cfgs {
			res, _, err := runLoop(tr, live.LoopScenario{
				Net:      live.LoopConfig{Seed: lossSeed(p.seed, i, k), Jitter: 50 * time.Microsecond, LossRate: 0.01},
				Protocol: c,
				MsgSize:  size,
			})
			out.transfers++
			if err != nil {
				out.fail("%v", err)
			}
			if res != nil {
				mix.addEvents(res.Trace)
				out.loops = append(out.loops, res)
			}
		}
		out.dur = time.Since(t0)
		return out
	}
	return in.warmed(p.size(2, 1))
}

// runLoop executes one loopback scenario under a span and checks it:
// the sender finished without error and every receiver delivered the
// message byte for byte.
func runLoop(tr *tracer, sc live.LoopScenario) (*live.LoopResult, time.Duration, error) {
	id := tr.begin("live.RunLoopScenario")
	t0 := time.Now()
	res, err := live.RunLoopScenario(sc)
	wall := time.Since(t0)
	tr.end(id)
	switch {
	case err != nil:
		err = fmt.Errorf("%v: %w", sc.Protocol.Protocol, err)
	case !res.SendDone || res.SendErr != nil:
		err = fmt.Errorf("%v: done=%v err=%v", sc.Protocol.Protocol, res.SendDone, res.SendErr)
	case len(res.Delivered) != sc.Protocol.NumReceivers:
		err = fmt.Errorf("%v: %d of %d receivers delivered", sc.Protocol.Protocol, len(res.Delivered), sc.Protocol.NumReceivers)
	}
	return res, wall, err
}

// udpBulkConfig is rmnode's defaults for its default protocol.
func udpBulkConfig() core.Config {
	return core.Config{Protocol: core.ProtoNAK, NumReceivers: 2, PacketSize: 8000,
		WindowSize: 20, PollInterval: 17, AdaptiveRTO: true}
}

func setupLiveUDP(p params, tr *tracer, mix *mixCounter) (*instance, error) {
	msg := seededBytes(p.seed, p.size(4<<20, 256<<10))
	pcfg := udpBulkConfig()
	g, err := openUDPGroup(p.seed, pcfg, msg, tr, mix)
	if err != nil {
		return nil, err
	}
	in := &instance{
		msgBytes: len(msg),
		close:    func() { g.close() },
		sims:     []simTransfer{analogue(pcfg, msg)},
	}
	in.op = func(int) outcome {
		var out outcome
		out.transfers = 1
		dur, err := g.send(msg)
		out.dur = dur
		if err != nil {
			out.fail("%v", err)
		}
		return out
	}
	return in.warmed(p.size(5, 1))
}
