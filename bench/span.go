package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test carries no spans of its own yet).
// Start and End are nanoseconds since the tracer's epoch; Parent is the
// index of the enclosing span, -1 at the root; Op is the workload
// operation the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer keeps spans in memory until the run ends. It is confined to
// the goroutine that drives the workload; a nil tracer records nothing,
// so untraced passes run the same code with the calls compiled down to
// a nil check.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = int32(op)
	}
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// spanStat is the reduction of every span sharing one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"` // total minus the time covered by child spans
	MeanNs  float64 `json:"mean_ns"`
}

// reduce folds the spans keep selects into per-name totals. A span's
// self time is its duration minus the durations of its direct children,
// which never overlap because one goroutine records them.
func (t *tracer) reduce(keep func(span) bool) map[string]*spanStat {
	out := map[string]*spanStat{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if !keep(s) {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			out[s.Name] = st
		}
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += s.End - s.Start - child[i]
	}
	for _, st := range out {
		st.MeanNs = float64(st.TotalNs) / float64(st.Count)
	}
	return out
}

func sortedStats(m map[string]*spanStat) []*spanStat {
	out := make([]*spanStat, 0, len(m))
	for _, st := range m {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
