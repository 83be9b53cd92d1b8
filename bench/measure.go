package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit, in the shape the
// benchmark contract prints.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics; put panics on a duplicate name so a
// rig that reports the same rung twice is caught by the smoke test.
type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) {
	if _, dup := m[name]; dup {
		panic("bench: metric " + name + " reported twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// percentile returns the p'th percentile (0..100) of sorted, by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// samplesBeyond is how many of n samples lie above the p'th percentile.
func samplesBeyond(n int, p float64) int {
	return int(float64(n) * (100 - p) / 100)
}

// ratio is a/b with 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memMark reads the process-wide allocation counters. ReadMemStats
// stops the world, so it brackets whole measurement loops, never single
// operations.
type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return memMark{st.Mallocs, st.TotalAlloc}
}

func (m memMark) since() (mallocs, bytes float64) {
	now := markMem()
	return float64(now.mallocs - m.mallocs), float64(now.bytes - m.bytes)
}

// unitCost is what an isolated-layer driver measured for one unit of
// work (a packet, a frame, a datagram).
type unitCost struct {
	ns     float64 // median over timed batches of batch wall time / units
	allocs float64 // mean heap objects per unit over all timed batches
	bytes  float64 // mean heap bytes per unit over all timed batches
}

// timeUnits runs batch (which performs units units of work) once to
// warm pools and caches, then repeatedly for at least budget, and
// reports the per-unit cost. At least three batches are timed so the
// median is never a single sample — except at smoke size, where one
// cold batch is all that runs.
func timeUnits(budget time.Duration, smoke bool, units int, batch func()) unitCost {
	minBatches := 3
	if smoke {
		minBatches = 1
	} else {
		batch()
	}
	var per []float64
	mem := markMem()
	start := time.Now()
	for len(per) < minBatches || time.Since(start) < budget {
		t0 := time.Now()
		batch()
		per = append(per, float64(time.Since(t0))/float64(units))
	}
	mallocs, bytes := mem.since()
	total := float64(len(per) * units)
	return unitCost{ns: median(per), allocs: mallocs / total, bytes: bytes / total}
}

// sampleFor calls once back to back for at least budget and at least
// min times and returns the durations it reported, in nanoseconds.
func sampleFor(budget time.Duration, min int, once func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	for start := time.Now(); len(out) < min || time.Since(start) < budget; {
		d, err := once()
		if err != nil {
			return nil, err
		}
		out = append(out, float64(d))
	}
	return out, nil
}
