package exp

import (
	"context"
	"fmt"
	"time"

	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/faults"
	"rmcast/internal/stats"
)

// failureConfigs is ablationConfigs tuned for failure detection: small
// packets so every crash point leaves more outstanding data than any
// window (making the crash observable rather than a race with the
// victim's own final acknowledgments), short timeouts so the detection
// horizon — MaxRetries no-progress rounds plus ProbeRounds probe rounds
// — stays in the low hundreds of milliseconds.
func failureConfigs(n int) []core.Config {
	cfgs := ablationConfigs(n)
	for i := range cfgs {
		cfgs[i].PacketSize = 1000
		cfgs[i].RetransTimeout = 20 * time.Millisecond
		cfgs[i].AllocTimeout = 2 * time.Millisecond
		cfgs[i].MaxRetries = 3
	}
	return cfgs
}

// runExtFailures measures what the paper's all-must-receive semantics
// cost when the assumption of a fixed healthy membership breaks: each
// protocol runs against one and two receiver crashes injected before
// allocation, mid-transfer, and in the last packets. The seed protocols
// would retransmit forever; with failure detection the sender ejects
// the dead, splices the acknowledgment structure around them, and
// completes for the survivors. The table reports the completion time
// against the fault-free baseline and the detection outcome.
func runExtFailures(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 1000 * KB
	if o.Quick {
		size = 300 * KB
	}
	points := []struct {
		name string
		at   float64
	}{
		{"@start", 0},
		{"@half", 0.5},
		{"@tail", 0.9},
	}
	// Each crash set's spec takes the crash point as its argument.
	crashSets := []struct {
		name    string
		crashes int
		spec    string
	}{
		{"1 crash", 1, "crash:3@%[1]g"},
		{"2 crashes", 2, "crash:3@%[1]g,crash:7@%[1]g"},
	}
	t := &stats.Table{
		Title:  fmt.Sprintf("%dB to %d receivers, crash count x crash time per protocol", size, n),
		Header: []string{"protocol", "faults", "baseline (s)", "degraded (s)", "overhead", "ejected", "survivors ok"},
	}
	cfgs := failureConfigs(n)
	// Each protocol runs its fault-free baseline, then every crash set
	// at every crash point.
	var pts []point
	for _, pcfg := range cfgs {
		pts = append(pts, o.mc(n, pcfg, size))
		for _, cs := range crashSets {
			for _, pt := range points {
				sched, err := faults.Parse(fmt.Sprintf(cs.spec, pt.at))
				if err != nil {
					return nil, err
				}
				ccfg := o.clusterConfig(n)
				ccfg.Faults = sched
				pts = append(pts, point{ccfg, cluster.ProtoSpec(pcfg), size})
			}
		}
	}
	res, err := o.run(ctx, pts)
	if err != nil {
		return nil, err
	}
	var findings []string
	allSurvived := true
	for _, pcfg := range cfgs {
		base := res[0]
		res = res[1:]
		worst := 0.0
		for _, cs := range crashSets {
			for _, pt := range points {
				r := res[0]
				res = res[1:]
				overhead := secs(r.Elapsed) / secs(base.Elapsed)
				if overhead > worst {
					worst = overhead
				}
				// runPoint already rejected any corrupted survivor.
				survivorsOK := len(r.Failed) == cs.crashes
				if !survivorsOK {
					allSurvived = false
				}
				t.AddRow(pcfg.Protocol.String(), cs.name+pt.name,
					secs(base.Elapsed), secs(r.Elapsed), overhead,
					r.SenderStats.Ejected, survivorsOK)
			}
		}
		findings = append(findings, fmt.Sprintf(
			"%v: every crash scenario terminates; worst degraded completion %.2fx the fault-free run",
			pcfg.Protocol, worst))
	}
	if allSurvived {
		findings = append(findings,
			"all protocols eject exactly the crashed receivers and deliver byte-identical data to every survivor — the all-must-receive semantics degrade to all-surviving-must-receive instead of wedging the sender in infinite retransmission")
	} else {
		findings = append(findings, "WARNING: at least one scenario failed to eject cleanly or corrupted a survivor")
	}
	return &Report{ID: "ext_failures", Title: "Receiver crashes", PaperRef: "Section 3",
		Tables: []*stats.Table{t}, Findings: findings}, nil
}
