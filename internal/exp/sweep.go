package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/faults"
	"rmcast/internal/stats"
)

// Each runs fn(0), …, fn(n-1) on up to workers goroutines and hands
// every result to yield in index order, so what the caller assembles
// never depends on the worker count. workers 0 or 1 runs the points
// serially on the calling goroutine; negative uses GOMAXPROCS. yield
// returning false stops the sweep: no fn that has not started by then
// runs, and Each returns once the started ones finish. A point whose
// turn comes after ctx is done is yielded with ctx.Err() instead of
// running.
func Each[T any](ctx context.Context, workers, n int, fn func(i int) (T, error), yield func(i int, v T, err error) bool) {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	run := func(i int) (v T, err error) {
		if err = ctx.Err(); err == nil {
			v, err = fn(i)
		}
		return v, err
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if v, err := run(i); !yield(i, v, err) {
				return
			}
		}
		return
	}
	type result struct {
		v   T
		err error
	}
	done := make([]chan result, n)
	for i := range done {
		done[i] = make(chan result, 1)
	}
	var (
		next    atomic.Int64 // the next index to hand out
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	for w := 0; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// An index taken after the stop is dropped unstarted.
			for i := int(next.Add(1) - 1); i < n && !stopped.Load(); i = int(next.Add(1) - 1) {
				v, err := run(i)
				done[i] <- result{v, err}
			}
		}()
	}
	defer wg.Wait()
	for i, c := range done {
		if r := <-c; !yield(i, r.v, r.err) {
			stopped.Store(true)
			return
		}
	}
}

// all runs fn over n points on o.Parallel workers and returns the
// results in index order, or the first error in index order (points
// after it that have not started never run).
func all[T any](ctx context.Context, o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	var first error
	Each(ctx, o.Parallel, n, fn, func(i int, v T, err error) bool {
		out[i], first = v, err
		return err == nil
	})
	return out, first
}

// point is one simulated transfer: a testbed, what runs on it, and the
// message size.
type point struct {
	cfg  cluster.Config
	spec cluster.Spec
	size int
}

// mc is a reliable multicast point on the options' n-receiver testbed.
func (o Options) mc(n int, pcfg core.Config, size int) point {
	return point{o.clusterConfig(n), cluster.ProtoSpec(pcfg), size}
}

// run executes the points as one batch on o.Parallel workers and
// returns their results in order.
func (o Options) run(ctx context.Context, pts []point) ([]*cluster.Result, error) {
	return all(ctx, o, len(pts), func(i int) (*cluster.Result, error) { return o.runPoint(ctx, pts[i]) })
}

// runPoint is the one runner for points. A point that delivers
// corrupted data to a surviving receiver is an error.
func (o Options) runPoint(ctx context.Context, p point) (*cluster.Result, error) {
	o.shardize(&p)
	res, err := cluster.Run(ctx, p.cfg, p.spec, p.size)
	if err != nil {
		return nil, err
	}
	if !res.Verified {
		return nil, fmt.Errorf("exp: %v run delivered corrupted data", p.spec)
	}
	return res, nil
}

// shardize resolves Options.Shards against one point's final
// configuration (fabric and fault schedule included), setting Shards
// only when the sharded engine would accept it. Experiments therefore
// never fail from a shard/topology mismatch: incompatible points simply
// run serially, producing the same bytes.
func (o Options) shardize(p *point) {
	want, c := o.Shards, &p.cfg
	// The sequential TCP baseline always runs serially.
	if want == 0 || want == 1 || c.Propagation <= 0 || p.spec.String() == "tcp" {
		return
	}
	if want < 0 {
		want = runtime.GOMAXPROCS(0)
	}
	want = min(want, cluster.MaxShards(*c))
	if want < 2 {
		return
	}
	if c.Faults != nil {
		for _, e := range c.Faults.Events {
			if e.ByProgress || e.Kind == faults.Burst {
				return
			}
		}
	}
	c.Shards = want
}

// curve is one labelled line of a figure: its points and the x each is
// plotted at.
type curve struct {
	label string
	xs    []float64
	pts   []point
}

func (c *curve) add(x float64, p point) {
	c.xs = append(c.xs, x)
	c.pts = append(c.pts, p)
}

// grid is one curve per row, labelled fmt.Sprintf(label, row), plotting
// pt(row, x) at every x.
func grid(label string, rows, xs []int, pt func(row, x int) point) []*curve {
	cs := make([]*curve, len(rows))
	for i, row := range rows {
		cs[i] = &curve{label: fmt.Sprintf(label, row)}
		for _, x := range xs {
			cs[i].add(float64(x), pt(row, x))
		}
	}
	return cs
}

// curves runs every point of cs as one batch and returns each curve as
// a series of elapsed seconds.
func (o Options) curves(ctx context.Context, cs ...*curve) ([]*stats.Series, error) {
	var pts []point
	for _, c := range cs {
		pts = append(pts, c.pts...)
	}
	res, err := o.run(ctx, pts)
	if err != nil {
		return nil, err
	}
	out := make([]*stats.Series, len(cs))
	for i, c := range cs {
		out[i] = &stats.Series{Label: c.label}
		for _, x := range c.xs {
			out[i].Add(x, secs(res[0].Elapsed))
			res = res[1:]
		}
	}
	return out, nil
}
