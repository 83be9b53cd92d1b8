package main

import (
	"io"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the benchmark's contract
// computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("three values: got %v %v %v", q1, q2, q3)
	}
}

var testBenchmark = benchmark{
	Workloads: []struct {
		Name string `json:"name"`
	}{{Name: "w"}},
	EndToEnd: []declared{{Name: "transfer_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}},
	PerLayer: []declared{{Name: "sim.events_per_transfer", Unit: "count", Better: "lower"}},
}

// runs builds one side: run i has p50 = p50s[i] and the event count
// events, listed as exact.
func runs(p50s []float64, events float64) side {
	var s side
	for _, v := range p50s {
		s.sets = append(s.sets, resultSet{Workloads: []*report{
			{Workload: "w", Metrics: map[string]metric{"transfer_ms_p50": {v, "ms"}}},
			{Workload: "w", Traced: true, Metrics: map[string]metric{"sim.events_per_transfer": {events, "count"}},
				Exact: []string{"sim.events_per_transfer"}},
		}})
	}
	return s
}

func ten(v, step float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = v + step*float64(i%3)
	}
	return out
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name     string
		base     side
		head     side
		fails    bool
		contains string
	}{
		{"unchanged", runs(ten(100, 0.1), 7), runs(ten(100.05, 0.1), 7), false, "unchanged"},
		{"regression beyond the bound", runs(ten(100, 0.1), 7), runs(ten(115, 0.1), 7), true, "REGRESSION"},
		{"gain", runs(ten(100, 0.1), 7), runs(ten(90, 0.1), 7), false, "gain"},
		{"no gain from three pairs", runs(ten(100, 0.1)[:3], 7), runs(ten(90, 0.1)[:3], 7), false, "unchanged"},
		{"spread wider than the bound", runs(ten(100, 20), 7), runs(ten(101, 20), 7), false, "unresolved"},
		{"exact count moved", runs(ten(100, 0.1), 7), runs(ten(100, 0.1), 8), true, "EXACT-MISMATCH"},
	}
	for _, c := range cases {
		var out strings.Builder
		if got := judge(&out, testBenchmark, c.base, c.head); got != c.fails {
			t.Errorf("%s: gate fails = %v, want %v\n%s", c.name, got, c.fails, out.String())
		}
		if !strings.Contains(out.String(), c.contains) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.contains, out.String())
		}
	}
	// One side alone: the steadiness listing, gate open.
	if judge(io.Discard, testBenchmark, runs(ten(100, 0.1), 7), side{}) {
		t.Error("a steady single side fails the gate")
	}
}
