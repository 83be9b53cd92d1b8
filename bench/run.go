package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rmcast/internal/core"
)

// report is one workload's result: the contract's four keys plus what a
// reader of the result set needs to interpret them.
type report struct {
	Workload  string    `json:"workload"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	Ops          int       `json:"ops"`
	TailPct      float64   `json:"tail_percentile"`
	TailBeyond   int       `json:"tail_samples_beyond"`
	FirstFailure string    `json:"first_failure,omitempty"`
	Detail       metricSet `json:"detail,omitempty"`
	// Exact names the metrics that are counts made by the program and
	// must repeat bit-for-bit at a seed; compare demands equality there.
	Exact []string `json:"exact,omitempty"`
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, so one slow page-in does not decide it.
const setupRepeats = 5

// exactOps is how many operations of the traced pass the exact counts
// and the packet mix are taken over. It is fixed, not time-bound, so
// workloads whose operations differ by index (live_loop's loss pattern)
// still repeat their counts at a seed.
const exactOps = 3

// opsResult is one measurement loop.
type opsResult struct {
	durs      []float64 // per-operation wall, ms
	wall      time.Duration
	transfers int
	failed    int
	why       string
	mallocs   float64
	bytes     float64
	outcomes  []outcome // the first keep operations, raw results included
}

// runOps runs operations back to back (closed loop, one in flight) for
// at least budget and at least minOps operations.
func runOps(in *instance, budget time.Duration, minOps int, tr *tracer, keep int, afterOp func(i int)) opsResult {
	var r opsResult
	runtime.GC()
	mem := markMem()
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		tr.setOp(i)
		out := in.op(i)
		r.durs = append(r.durs, ms(out.dur))
		r.wall += out.dur
		r.transfers += out.transfers
		r.failed += out.failed
		if r.why == "" {
			r.why = out.why
		}
		if i < keep {
			r.outcomes = append(r.outcomes, out)
		}
		if afterOp != nil {
			afterOp(i)
		}
	}
	r.mallocs, r.bytes = mem.since()
	return r
}

func failedReport(w *workloadDef, traced bool, err error) *report {
	return &report{Workload: w.name, Traced: traced, Attempted: 1, Failed: 1,
		Metrics: metricSet{}, FirstFailure: err.Error(), TailPct: w.tailPct}
}

// budget is a share of the run's measuring time; nothing in a smoke run
// loops on the clock.
func (p params) budget(share float64) time.Duration {
	if p.smoke {
		return 0
	}
	return time.Duration(p.seconds * share * float64(time.Second))
}

// runEndToEnd is the untraced pass: set up (several times), measure for
// p.seconds, report the six end-to-end metrics.
func runEndToEnd(w *workloadDef, p params) *report {
	var in *instance
	var setups []float64
	for k := 0; k < p.size(setupRepeats, 1); k++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		if in, err = w.setup(p, nil, nil); err != nil {
			return failedReport(w, false, fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.close()

	r := runOps(in, p.budget(1), p.size(3, 1), nil, 0, nil)
	sorted := append([]float64(nil), r.durs...)
	sort.Float64s(sorted)
	ok := float64(r.transfers - r.failed)
	rep := &report{
		Workload: w.name, Correct: r.failed == 0, Attempted: r.transfers, Failed: r.failed,
		Ops: len(r.durs), TailPct: w.tailPct, TailBeyond: samplesBeyond(len(r.durs), w.tailPct),
		FirstFailure: r.why, Metrics: metricSet{},
	}
	rep.Metrics.put("setup_s", median(setups), "s")
	rep.Metrics.put("transfer_ms_p50", percentile(sorted, 50), "ms")
	rep.Metrics.put("transfer_ms_tail", percentile(sorted, w.tailPct), "ms")
	rep.Metrics.put("goodput_mbps", ratio(float64(in.msgBytes)*ok*8/1e6, r.wall.Seconds()), "Mbit/s")
	rep.Metrics.put("allocs_per_transfer", ratio(r.mallocs, float64(r.transfers)), "count")
	rep.Metrics.put("alloc_kb_per_transfer", ratio(r.bytes/1024, float64(r.transfers)), "KiB")
	return rep
}

// traceFile is what a traced pass leaves in <out>/trace-<workload>.json.
type traceFile struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Env       environment `json:"environment"`
	Metrics   metricSet   `json:"metrics"`
	Detail    metricSet   `json:"detail"`
	Exact     []string    `json:"exact"`
	Workloads []*spanStat `json:"workload_span_stats"`
	Rigs      []*spanStat `json:"rig_span_stats"`
	// Spans is every span of the workload's operations and the first
	// maxRigSpans of the isolated drivers (the null-Env rig alone records
	// one per packet delivery); SpansDropped counts the rest, which the
	// statistics above still include.
	Spans        []span `json:"spans"`
	SpansDropped int    `json:"spans_dropped"`
}

const maxRigSpans = 20000

// Span operation ids outside the measured operations.
const (
	opSetup = -1
	opRig   = -2
)

// runTraced is the traced pass: the workload at one-tenth length with
// tracing (spans around every call into a layer, the program's own
// packet trace switched on to read the mix) between two untraced halves
// of the same total length, then the ladder of isolated drivers, then
// the reduction to per-layer metrics.
func runTraced(w *workloadDef, p params, outDir string) *report {
	fail := func(stage string, err error) *report {
		return failedReport(w, true, fmt.Errorf("%s: %w", stage, err))
	}
	minOps := p.size(exactOps, 1)

	plain, err := w.setup(p, nil, nil)
	if err != nil {
		return fail("set-up", err)
	}
	tr := newTracer()
	tr.setOp(opSetup)
	mix := newMixCounter()
	in, err := w.setup(p, tr, mix)
	if err != nil {
		plain.close()
		return fail("traced set-up", err)
	}
	mix.clear() // warm-up operations are not part of the mix
	// Untraced, traced, untraced: whatever the process is still warming
	// up (heap size, page cache) lands on both sides of the comparison.
	before := runOps(plain, p.budget(0.05), minOps, nil, 0, nil)
	traced := runOps(in, p.budget(0.1), minOps, tr, minOps, func(i int) {
		if i == minOps-1 {
			mix.freeze()
		}
	})
	after := runOps(plain, p.budget(0.05), minOps, nil, 0, nil)
	plain.close()
	in.close()
	mix.settle()
	tr.setOp(opRig)
	untraced := median(append(before.durs, after.durs...))

	rep := &report{
		Workload: w.name, Traced: true, Ops: len(traced.durs), TailPct: w.tailPct,
		Attempted:    before.transfers + traced.transfers + after.transfers,
		Failed:       before.failed + traced.failed + after.failed,
		FirstFailure: before.why + traced.why + after.why,
		Metrics:      metricSet{}, Detail: metricSet{},
	}
	rep.Correct = rep.Failed == 0
	if !rep.Correct {
		return rep
	}

	// One rig loop gets about a sixtieth of the run: some forty loops
	// share what the workload passes and the fixed-size rigs leave.
	r := &rig{p: p, budget: p.budget(0.016), tr: tr, m: rep.Metrics, d: rep.Detail,
		exact: map[string]bool{}, mix: mix, sims: in.sims}
	r.m.put("bench.trace_overhead_share", ratio(median(traced.durs)-untraced, untraced), "ratio")

	// The operation as simulated transfers, run once more with its own
	// mix counter: the exact counts of the sim-side rungs and the inputs
	// of the cost model. For sim_* workloads this is the operation
	// itself; for live_* ones its analogue on the paper testbed.
	simMix := newMixCounter()
	var simOut outcome
	for _, t := range in.sims {
		runSim(t, nil, simMix, &simOut)
	}
	if simOut.failed > 0 {
		return fail("simulated replay", fmt.Errorf("%s", simOut.why))
	}
	fromResults(r, simOut.sims)
	live := len(traced.outcomes[0].sims) == 0
	runWall := time.Duration(untraced * float64(time.Millisecond))
	if live {
		// Time the analogue untraced, as the model's denominator.
		walls, _ := sampleFor(0, 3, func() (time.Duration, error) {
			var out outcome
			t0 := time.Now()
			for _, t := range in.sims {
				runSim(t, nil, nil, &out)
			}
			return time.Since(t0), nil
		})
		runWall = time.Duration(median(walls))
	}
	r.m.put("cluster.run_ms", ms(runWall)/float64(len(in.sims)), "ms")

	cc := packetRig(r)
	wireRig(r, &cc)
	windowRig(r)
	coreWall, err := coreRig(r)
	if err != nil {
		return fail("core rig", err)
	}
	simRig(r)
	events, depth, err := simReplay(r)
	if err != nil {
		return fail("sim replay", err)
	}
	if err := shardRig(r); err != nil {
		return fail("shard rig", err)
	}
	ethernetRig(r)
	dg := ipnetRig(r)
	newWall, err := clusterRig(r)
	if err != nil {
		return fail("cluster rig", err)
	}

	// Sender counters come from wherever the workload's own senders can
	// be read: the operation's results (sim_*), the loopback runs'
	// results (live_loop, which therefore also supplies the live rig's
	// lossy numbers), or — a UDP node does not expose its sender — the
	// live rig's lossless loopback run of the same configuration.
	var senders, lossy []core.SenderStats
	for _, res := range traced.outcomes[0].sims {
		senders = append(senders, res.SenderStats)
	}
	for _, out := range traced.outcomes {
		for _, res := range out.loops {
			lossy = append(lossy, res.SenderStats)
		}
	}
	lossless, err := liveRig(r, lossy)
	if err != nil {
		return fail("live rig", err)
	}
	switch {
	case lossy != nil:
		senders = lossy
	case senders == nil:
		senders = []core.SenderStats{lossless}
	}
	senderCounts(r, senders)

	isRig := func(s span) bool { return s.Op == opRig }
	isOp := func(s span) bool { return s.Op >= 0 }
	rigStats, opStats := tr.reduce(isRig), tr.reduce(isOp)
	coreSpans(r, rigStats)
	perProtocolRunMs(r, tr, in.sims)

	attribute(r, modelInputs{
		mix: simMix, receivers: in.sims[0].ccfg.NumReceivers,
		runWall: runWall, newWall: newWall, coreWall: coreWall, codec: cc, dgram: dg,
		floodNs: r.m["ethernet.flood_ns_per_copy"].Value, uniNs: r.m["ethernet.unicast_ns_per_frame"].Value,
		results: simOut.sims, v2: in.sims[0].pcfg.WireV2, events: events, depth: depth,
		fireD1: r.m["sim.schedule_fire_ns_d1"].Value, fireD1k: r.m["sim.schedule_fire_ns_d1k"].Value,
	})

	if w.deterministic {
		for name := range r.exact {
			rep.Exact = append(rep.Exact, name)
		}
		sort.Strings(rep.Exact)
	}
	if outDir != "" {
		if err := writeTrace(outDir, w, p, rep, tr, opStats, rigStats); err != nil {
			return fail("writing the trace", err)
		}
	}
	return rep
}

// perProtocolRunMs splits the operation's cluster.Run spans by position
// in the round: span k of every operation ran protocol k.
func perProtocolRunMs(r *rig, tr *tracer, sims []simTransfer) {
	sums := make([]float64, len(sims))
	counts := make([]float64, len(sims))
	next := map[int32]int{}
	for _, s := range tr.spans {
		if s.Op < 0 || s.Name != "cluster.Run" {
			continue
		}
		k := next[s.Op] % len(sims)
		next[s.Op]++
		sums[k] += float64(s.End - s.Start)
		counts[k]++
	}
	for k, t := range sims {
		if counts[k] > 0 {
			r.d.put("cluster.run_ms."+t.label, sums[k]/counts[k]/1e6, "ms")
		}
	}
}

func writeTrace(dir string, w *workloadDef, p params, rep *report, tr *tracer, opStats, rigStats map[string]*spanStat) error {
	tf := traceFile{
		Workload: w.name, Seed: p.seed, Env: readEnvironment(),
		Metrics: rep.Metrics, Detail: rep.Detail, Exact: rep.Exact,
		Workloads: sortedStats(opStats), Rigs: sortedStats(rigStats),
	}
	rigSpans := 0
	for _, s := range tr.spans {
		if s.Op == opRig {
			if rigSpans++; rigSpans > maxRigSpans {
				tf.SpansDropped++
				continue
			}
		}
		tf.Spans = append(tf.Spans, s)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+w.name+".json"), data, 0o644)
}
