package exp

import (
	"context"
	"fmt"
	"slices"
	"time"

	"rmcast/internal/cluster"
	"rmcast/internal/stats"
	"rmcast/internal/workload"
)

// runExtAppSim runs the communication skeleton of a bulk-synchronous
// parallel application — per iteration: the master broadcasts updated
// parameters, workers exchange halo contributions via allgather, and a
// barrier closes the superstep — over each reliable multicast protocol,
// measuring the end-to-end communication time the protocol choice is
// worth at the application level.
//
// The supersteps within one protocol's run are inherently sequential
// (they share one simulated cluster), so the fan-out unit is the whole
// per-protocol run.
func runExtAppSim(ctx context.Context, o Options) (*Report, error) {
	n := o.receivers()
	iterations := 10
	paramBytes := 128 * KB
	haloBytes := 2 * KB
	if o.Quick {
		iterations = 3
		paramBytes = 32 * KB
	}
	t := &stats.Table{
		Title: fmt.Sprintf("%d supersteps, %d ranks: bcast %dB + allgather %dB/rank + barrier",
			iterations, n+1, paramBytes, haloBytes),
		Header: []string{"protocol", "total comm time (s)", "per superstep (ms)"},
	}
	cfgs := ablationConfigs(n)
	totals, err := all(ctx, o, len(cfgs), func(i int) (time.Duration, error) {
		pcfg := cfgs[i]
		comm, err := workload.NewComm(o.clusterConfig(n), pcfg)
		if err != nil {
			return 0, err
		}
		params := cluster.MakeMessage(paramBytes)
		contribs := make([][]byte, comm.Size())
		for i := range contribs {
			contribs[i] = cluster.MakeMessage(haloBytes)
		}
		for it := 0; it < iterations; it++ {
			if _, err := comm.Bcast(0, params); err != nil {
				return 0, fmt.Errorf("%v iteration %d bcast: %w", pcfg.Protocol, it, err)
			}
			if _, _, err := comm.Allgather(contribs); err != nil {
				return 0, fmt.Errorf("%v iteration %d allgather: %w", pcfg.Protocol, it, err)
			}
			if _, err := comm.Barrier(); err != nil {
				return 0, fmt.Errorf("%v iteration %d barrier: %w", pcfg.Protocol, it, err)
			}
		}
		return comm.Elapsed(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, pcfg := range cfgs {
		t.AddRow(pcfg.Protocol.String(), secs(totals[i]), 1e3*secs(totals[i])/float64(iterations))
	}
	best, worst := slices.Index(totals, slices.Min(totals)), slices.Index(totals, slices.Max(totals))
	findings := []string{fmt.Sprintf(
		"the protocol choice is worth %.2fx of application communication time (%s %.3fs vs %s %.3fs): "+
			"the paper's per-transfer differences compound over supersteps, and the small allgather/barrier "+
			"messages favor the protocols that are cheap for single-packet transfers",
		secs(totals[worst])/secs(totals[best]), cfgs[best].Protocol, secs(totals[best]), cfgs[worst].Protocol, secs(totals[worst]))}
	return &Report{ID: "ext_appsim", Title: "Application-level impact", PaperRef: "Section 1",
		Tables: []*stats.Table{t}, Findings: findings}, nil
}
