package exp

import (
	"context"
	"fmt"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/metrics"
	"rmcast/internal/session"
	"rmcast/internal/stats"
	"rmcast/internal/topo"
)

// contentionSessionCounts is the offered-load axis: how many concurrent
// multicast sessions share the fabric at each sweep level.
var contentionSessionCounts = []int{1, 2, 4, 8}

// contentionProtos builds the per-session protocol templates for rp
// receivers per session: sub-MTU packets (so one dropped frame costs
// one packet, not a whole fragment train) and windows large enough that
// an uncontrolled sender can genuinely congest the shared fabric. The
// tree protocol's aggregation chains assume they own the group's
// acknowledgment path, which concurrent sessions on overlapping hosts
// violate by construction, so the sweep uses the three flat protocols.
func contentionProtos(rp int) []core.Config {
	return []core.Config{
		{Protocol: core.ProtoACK, PacketSize: 1400, WindowSize: 16},
		{Protocol: core.ProtoNAK, PacketSize: 1400, WindowSize: 32, PollInterval: 6},
		{Protocol: core.ProtoRing, PacketSize: 1400, WindowSize: rp + 20},
	}
}

// contentionRate is the AIMD configuration the controlled half of the
// sweep runs: worst-receiver (leader) pacing, and a congestion ceiling
// below the protocol window so the controller — not the protocol's
// fixed window — owns the send rate. MinWindow, Increase, and Beta keep
// their defaults (the protocol floor, +1/round, x0.5 per loss round).
func contentionRate() core.RateControl {
	return core.RateControl{Enabled: true, LeaderPacing: true, MaxWindow: 12}
}

// contentionQueueCap is the per-output switch queue bound for the
// sweep, in wire bytes (~32 full data frames). One session never
// overflows it — a store-and-forward output port drains as fast as one
// input fills it — but several senders flooding the same output ports
// do, which is the loss regime the rate controller exists for. The
// default 256 KB queues absorb the whole sweep silently, turning
// contention into pure delay.
const contentionQueueCap = 48 * 1024

// runExtContention sweeps concurrent reliable-multicast sessions over a
// shared switch fabric: {1,2,4,8} sessions x three protocols x two
// fabrics, each once uncontrolled and once under the AIMD
// window/pacing controller. The paper measures one session owning the
// wire; this extension asks what its protocols do to each other. Every
// session's group floods the whole fabric (the switches do no multicast
// pruning, like the paper's), so sessions contend for every edge link.
// Reported per cell: aggregate goodput across the sweep, Jain fairness
// over per-session goodput at the contended levels, and the
// congestion-collapse point (the first session count whose aggregate
// drops below 80% of the best seen).
func runExtContention(ctx context.Context, o Options) (*Report, error) {
	rp := 8
	size := 512 * KB
	if o.Quick {
		rp = 4
		size = 256 * KB
	}
	fabrics := []struct {
		name string
		spec topo.Spec
	}{
		{"single-switch", topo.SingleSpec()},
		{"two-switch", topo.TwoSwitchSpec()},
	}
	protos := contentionProtos(rp)
	rates := []struct {
		name string
		rc   core.RateControl
	}{
		{"off", core.RateControl{}},
		{"aimd", contentionRate()},
	}

	// One session.Config per (fabric, protocol, rate setting, session
	// count), in table order.
	base := session.Config{ReceiversPer: rp, Overlap: 0.5, Stagger: 500 * time.Microsecond, MsgSize: size, Cluster: o.clusterConfig(1)}
	base.Cluster.SwitchQueueCap = contentionQueueCap
	var cfgs []session.Config
	for _, fab := range fabrics {
		for _, pcfg := range protos {
			for _, rate := range rates {
				for _, s := range contentionSessionCounts {
					cfg := base
					cfg.Sessions, cfg.Proto = s, pcfg
					cfg.Proto.Rate = rate.rc
					// The sweep owns the fabric axis; a -topo override does
					// not apply (as in ext_scale).
					spec := fab.spec
					cfg.Cluster.Topo = &spec
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	reps, err := all(ctx, o, len(cfgs), func(i int) (session.Report, error) {
		_, rep, err := session.Run(ctx, cfgs[i])
		if err != nil {
			return session.Report{}, err
		}
		if !rep.Completed || !rep.Verified {
			return session.Report{}, fmt.Errorf("exp: contention run incomplete or corrupted (%d sessions)", cfgs[i].Sessions)
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}

	var tables []*stats.Table
	var findings []string
	for _, fab := range fabrics {
		t := &stats.Table{
			Title: fmt.Sprintf("%s fabric, %dB per session, %d receivers per session, overlap 0.5, %dB switch queues",
				fab.name, size, rp, contentionQueueCap),
			Header: []string{"protocol", "rate ctl", "agg@1 (Mbps)", "agg@2", "agg@4", "agg@8", "fair@4", "fair@8", "collapse"},
		}
		// aggAt4[ri] and worstFair4[ri] summarize the 4-session level per
		// rate setting, across protocols, for the findings.
		aggAt4 := [2]float64{}
		worstFair4 := [2]float64{1, 1}
		for _, pcfg := range protos {
			for ri, rate := range rates {
				var aggs, fairs []float64
				for _, rep := range reps[:len(contentionSessionCounts)] {
					aggs = append(aggs, rep.AggregateMbps)
					fairs = append(fairs, rep.Fairness)
				}
				reps = reps[len(contentionSessionCounts):]
				aggAt4[ri] += aggs[2]
				if fairs[2] < worstFair4[ri] {
					worstFair4[ri] = fairs[2]
				}
				collapse := "none"
				if at, ok := metrics.CollapsePoint(aggs, 0.8); ok {
					collapse = fmt.Sprintf("%d sessions", contentionSessionCounts[at])
				}
				t.AddRow(pcfg.Protocol.String(), rate.name,
					aggs[0], aggs[1], aggs[2], aggs[3], fairs[2], fairs[3], collapse)
			}
		}
		tables = append(tables, t)
		findings = append(findings, fmt.Sprintf(
			"%s at 4 sessions: AIMD aggregate %.2f Mbps vs uncontrolled %.2f Mbps (%.2fx), worst-protocol fairness %.2f (uncontrolled %.2f)",
			fab.name, aggAt4[1], aggAt4[0], aggAt4[1]/max(aggAt4[0], 1e-9), worstFair4[1], worstFair4[0]))
	}
	findings = append(findings,
		"an uncontrolled sender that wins the race for a drop-tail queue keeps it — the losers' retransmissions arrive to a full queue and the lockout persists; halving into a shared ceiling and pacing at SRTT/cwnd breaks the lockout, so the controlled sweep is simultaneously fairer and faster")
	return &Report{ID: "ext_contention",
		Title:    "Multi-session contention and AIMD rate control",
		PaperRef: "Section 6 (outlook)",
		Tables:   tables, Findings: findings}, nil
}
