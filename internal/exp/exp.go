// Package exp defines one reproducible experiment per table and figure
// of the paper's evaluation (Section 5), plus ablation experiments for
// the design choices DESIGN.md calls out. Each experiment sweeps the
// same parameters as the paper on the simulated Figure 7 testbed and
// renders the same rows or curves the paper reports.
//
// Every simulation point is independent (each cluster.Run builds a
// fresh seeded testbed), so an experiment declares its points — or its
// curves of points — and one ordered engine (Each) runs them on
// Options.Parallel workers, handing results back in sweep order: the
// rendered tables are byte-identical whether the points ran serially or
// in parallel.
package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"rmcast/internal/cluster"
	"rmcast/internal/stats"
	"rmcast/internal/topo"
)

// Options tunes an experiment run.
type Options struct {
	// Receivers overrides the group size (default: the paper's 30).
	Receivers int
	// Seed drives all simulation randomness.
	Seed uint64
	// Quick shrinks sweeps for tests and smoke runs: fewer receivers,
	// smaller messages, coarser grids. Shapes remain, absolute values
	// shift.
	Quick bool
	// Topo, when non-nil, replaces the paper's two-switch testbed with a
	// declarative switch fabric for every simulation point (experiments
	// that sweep their own fabrics, like ext_scale, ignore it).
	Topo *topo.Spec
	// Parallel is the worker count for independent simulation points:
	// 0 or 1 runs serially, negative uses GOMAXPROCS. Output is
	// byte-identical either way.
	Parallel int
	// Shards splits each simulation point's event loop across
	// conservatively synchronized switch-domain shards: 0 or 1 runs the
	// serial engine, negative resolves to min(domains, GOMAXPROCS) per
	// point. The count is clamped to the point's fabric, and points the
	// sharded engine refuses (shared bus, progress-triggered or burst
	// faults, the TCP baseline) fall back to serial — sharded output is
	// byte-identical to serial, so reports are unaffected either way.
	Shards int
}

func (o Options) receivers() int {
	if o.Receivers > 0 {
		return o.Receivers
	}
	if o.Quick {
		return 8
	}
	return 30
}

// ReceiverCap returns the group size the sweeps will run at — the
// Receivers override, or the scale default — so CLI front ends can
// validate a fabric's capacity before any simulation starts.
func (o Options) ReceiverCap() int { return o.receivers() }

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// clusterConfig builds the testbed config for n receivers.
func (o Options) clusterConfig(n int) cluster.Config {
	c := cluster.Default(n)
	c.Seed = o.seed()
	c.Topo = o.Topo
	return c
}

// Report is an experiment's rendered result.
type Report struct {
	ID       string
	Title    string
	PaperRef string
	Tables   []*stats.Table
	// Findings are programmatically checked restatements of the paper's
	// qualitative claims for this experiment, with the measured values.
	Findings []string
}

// Fprint renders the report as text.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s (%s) ==\n", r.ID, r.Title, r.PaperRef)
	for _, t := range r.Tables {
		fmt.Fprintln(w)
		t.Fprint(w)
	}
	if len(r.Findings) > 0 {
		fmt.Fprintln(w)
		for _, f := range r.Findings {
			fmt.Fprintf(w, "finding: %s\n", f)
		}
	}
}

// Experiment is one registered, runnable experiment.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Run      func(context.Context, Options) (*Report, error)
}

// experiments is the registry, in the order All reports: the paper's
// Tables 1 and 2, its figures, Table 3, then the ablations and
// extensions by id.
var experiments = []Experiment{
	{ID: "table1", Title: "Memory requirement and implementation complexity", PaperRef: "Table 1", Run: runTable1},
	{ID: "table2", Title: "Processing and network requirement per data packet", PaperRef: "Table 2", Run: runTable2},
	{ID: "fig8", Title: "ACK-based protocol vs TCP", PaperRef: "Figure 8", Run: runFig8},
	{ID: "fig9", Title: "ACK-based protocol vs raw UDP", PaperRef: "Figure 9", Run: runFig9},
	{ID: "fig10", Title: "ACK-based: packet size × window size", PaperRef: "Figure 10", Run: runFig10},
	{ID: "fig11", Title: "ACK-based scalability", PaperRef: "Figure 11", Run: runFig11},
	{ID: "fig12", Title: "NAK+polling: poll interval sweep", PaperRef: "Figure 12", Run: runFig12},
	{ID: "fig13", Title: "NAK+polling: buffer size sweep", PaperRef: "Figure 13", Run: runFig13},
	{ID: "fig14", Title: "NAK+polling scalability", PaperRef: "Figure 14", Run: runFig14},
	{ID: "fig15", Title: "Ring-based: packet size sweep", PaperRef: "Figure 15", Run: runFig15},
	{ID: "fig16", Title: "Ring-based: window size sweep", PaperRef: "Figure 16", Run: runFig16},
	{ID: "fig17", Title: "Ring-based scalability", PaperRef: "Figure 17", Run: runFig17},
	{ID: "fig18", Title: "Tree-based: logical structure sweep", PaperRef: "Figure 18", Run: runFig18},
	{ID: "fig19", Title: "Tree-based: window size per height", PaperRef: "Figure 19", Run: runFig19},
	{ID: "fig20", Title: "Tree-based: small messages", PaperRef: "Figure 20", Run: runFig20},
	{ID: "fig21", Title: "Tree-based: window × packet size at H=6", PaperRef: "Figure 21", Run: runFig21},
	{ID: "table3", Title: "Throughput achieved when sending 2MB of data", PaperRef: "Table 3", Run: runTable3},
	{ID: "ablation_gobackn", Title: "Go-Back-N vs selective repeat under loss", PaperRef: "Section 4 (flow control choice)", Run: runAblationGoBackN},
	{ID: "ablation_loss", Title: "Go-Back-N cost under injected loss", PaperRef: "Section 4 (flow control)", Run: runAblationLoss},
	{ID: "ablation_media", Title: "Switched vs shared CSMA/CD media", PaperRef: "Section 3 (LAN features)", Run: runAblationMedia},
	{ID: "ablation_naksupp", Title: "Sender-side vs receiver-side NAK suppression", PaperRef: "Section 3 (NAK implosion)", Run: runAblationNakSupp},
	{ID: "ablation_pacing", Title: "Window-only vs rate-paced flow control", PaperRef: "Section 3 (flow control discussion)", Run: runAblationPacing},
	{ID: "ablation_relay", Title: "User-level vs kernel-cost ack relay in trees", PaperRef: "Section 5 (Figure 20 discussion)", Run: runAblationRelay},
	{ID: "ablation_suppress", Title: "Retransmission suppression on/off under loss", PaperRef: "Section 4 (error control)", Run: runAblationSuppress},
	{ID: "ext_appsim", Title: "A BSP-style parallel application over each protocol", PaperRef: "Section 1 (message passing libraries motivation)", Run: runExtAppSim},
	{ID: "ext_contention", Title: "Concurrent sessions sharing one fabric, with and without AIMD rate control", PaperRef: "Section 6 (outlook)", Run: runExtContention},
	{ID: "ext_failures", Title: "Degraded completion under receiver crashes", PaperRef: "Section 3 (reliability = all-must-receive)", Run: runExtFailures},
	{ID: "ext_gigabit", Title: "The comparison projected onto gigabit Ethernet", PaperRef: "Section 6 (outlook)", Run: runExtGigabit},
	{ID: "ext_scale", Title: "Protocol scaling on fat-tree fabrics up to 1k receivers", PaperRef: "Section 6 (outlook: beyond the 30-receiver testbed)", Run: runExtScale},
	{ID: "ext_speedup", Title: "Sharded simulator wall-time speedup at 1k-4k receivers", PaperRef: "Section 6 (simulator engineering)", Run: runExtSpeedup},
	{ID: "ext_straggler", Title: "One slow receiver in a homogeneous cluster", PaperRef: "Section 3 (homogeneity assumption)", Run: runExtStraggler},
	{ID: "ext_wirev2", Title: "Wire format v2: checksummed, compressed, coalesced frames across payload workloads", PaperRef: "Section 4 (implementation) / Section 6 (outlook)", Run: runExtWirev2},
}

// All returns every registered experiment in a stable order: paper
// tables and figures first (in paper order), then ablations.
func All() []Experiment { return append([]Experiment(nil), experiments...) }

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (try `rmbench -list`)", id)
}

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

// KB and MB are the paper's (binary) size units.
const (
	KB = 1024
	MB = 1024 * 1024
)
