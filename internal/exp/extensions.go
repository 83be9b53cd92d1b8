package exp

import (
	"context"
	"fmt"
	"slices"
	"time"

	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/ethernet"
	"rmcast/internal/ipnet"
	"rmcast/internal/stats"
)

// runExtStraggler quantifies why the paper restricts itself to
// homogeneous clusters: with reliable (all-must-receive) semantics, a
// single receiver that processes datagrams slowly gates every protocol,
// but by protocol-specific amounts — the ring stalls hardest because
// the straggler holds a rotation slot, while polling lets the NAK
// protocol coast between polls.
func runExtStraggler(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 500 * KB
	if o.Quick {
		size = 150 * KB
	}
	// The straggler reads datagrams 10× slower than its peers — a
	// compute-bound process, not a broken NIC.
	slow := ipnet.DefaultCosts()
	slow.RecvSyscall = 500 * time.Microsecond
	t := &stats.Table{
		Title:  fmt.Sprintf("%dB to %d receivers, one compute-bound receiver", size, n),
		Header: []string{"protocol", "homogeneous (s)", "one straggler (s)", "slowdown"},
	}
	cfgs := ablationConfigs(n)
	// Even points run the homogeneous cluster, odd ones the same
	// session with receiver 1 slowed.
	elapsed, err := all(ctx, o, 2*len(cfgs), func(i int) (time.Duration, error) {
		pcfg := cfgs[i/2]
		if i%2 == 1 {
			return runWithStraggler(o.clusterConfig(n), pcfg, size, slow)
		}
		res, err := o.runPoint(ctx, o.mc(n, pcfg, size))
		if err != nil {
			return 0, err
		}
		return res.Elapsed, nil
	})
	if err != nil {
		return nil, err
	}
	var findings []string
	for i, pcfg := range cfgs {
		base, strag := elapsed[2*i], elapsed[2*i+1]
		ratio := secs(strag) / secs(base)
		t.AddRow(pcfg.Protocol.String(), secs(base), secs(strag), ratio)
		findings = append(findings, fmt.Sprintf("%v: one straggler costs %.2fx", pcfg.Protocol, ratio))
	}
	findings = append(findings,
		"a straggler that still keeps up with the wire leaves the flat protocols untouched, but the tree's logical structure places it on an acknowledgment chain and its delay gates the whole chain's aggregate — heterogeneous clusters need different structures, as the paper notes when restricting its scope to homogeneous ones")
	return &Report{ID: "ext_straggler", Title: "Straggler sensitivity", PaperRef: "Section 3",
		Tables: []*stats.Table{t}, Findings: findings}, nil
}

// runWithStraggler runs one session where only receiver 1 has the slow
// cost model.
func runWithStraggler(ccfg cluster.Config, pcfg core.Config, size int, slow ipnet.CostModel) (time.Duration, error) {
	c, err := cluster.NewWithHostCosts(ccfg, func(host int) *ipnet.CostModel {
		if host == 1 {
			return &slow
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	ses, err := cluster.NewSession(c, 0, cluster.Port, pcfg, cluster.MakeMessage(size))
	if err != nil {
		return 0, err
	}
	return ses.RunToCompletion()
}

// runExtGigabit reruns the Table 3 comparison on a projected testbed:
// gigabit links with hosts only ~4× faster, the configuration clusters
// moved to a few years after the paper. The wire gets 10× faster but
// per-packet CPU costs do not, so every protocol becomes CPU-bound and
// the ACK-implosion penalty grows — the paper's conclusions sharpen
// rather than fade.
func runExtGigabit(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	size := 2 * MB
	if o.Quick {
		size = 512 * KB
	}
	fast := ipnet.DefaultCosts()
	fast.SendSyscall /= 4
	fast.RecvSyscall /= 4
	fast.SendPerByteNs /= 4
	fast.RecvPerByteNs /= 4
	fast.FragOverhead /= 4
	fast.UserCopyPerByteNs /= 4
	fast.TimerOverhead /= 4

	t := &stats.Table{
		Title:  fmt.Sprintf("%dB to %d receivers", size, n),
		Header: []string{"protocol", "100 Mbps (Mbps)", "1 Gbps + 4x hosts (Mbps)", "wire utilization at 1 Gbps"},
	}
	cfgs := ablationConfigs(n)
	var pts []point
	for _, pcfg := range cfgs {
		ccfg := o.clusterConfig(n)
		ccfg.LinkRate = ethernet.Rate1Gbps
		ccfg.Costs = fast
		pts = append(pts, o.mc(n, pcfg, size), point{ccfg, cluster.ProtoSpec(pcfg), size})
	}
	res, err := o.run(ctx, pts)
	if err != nil {
		return nil, err
	}
	var hundred, gig []float64
	for i, pcfg := range cfgs {
		base, g := res[2*i], res[2*i+1]
		util := g.ThroughputMbps / 1000
		t.AddRow(pcfg.Protocol.String(), base.ThroughputMbps, g.ThroughputMbps, fmt.Sprintf("%.0f%%", util*100))
		hundred = append(hundred, base.ThroughputMbps)
		gig = append(gig, g.ThroughputMbps)
	}
	findings := []string{fmt.Sprintf(
		"at 100 Mbps the spread (best/worst) is %.2fx; at gigabit it widens to %.2fx — faster wires make the protocol choice matter more, not less",
		max(slices.Max(hundred), 1)/max(slices.Min(hundred), 1),
		max(slices.Max(gig), 1)/max(slices.Min(gig), 1))}
	return &Report{ID: "ext_gigabit", Title: "Gigabit projection", PaperRef: "Section 6",
		Tables: []*stats.Table{t}, Findings: findings}, nil
}
