package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// declaration is the part of BENCHMARK.json the tests hold the program
// to.
type declaration struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// sameNames checks that got carries exactly the declared names, with
// the declared units — both directions.
func sameNames(t *testing.T, what string, got metricSet, want []struct{ Name, Unit string }) {
	t.Helper()
	declared := map[string]string{}
	for _, d := range want {
		declared[d.Name] = d.Unit
	}
	for name, m := range got {
		unit, ok := declared[name]
		switch {
		case !ok:
			t.Errorf("%s: emits %q, which BENCHMARK.json does not declare", what, name)
		case unit != m.Unit:
			t.Errorf("%s: %q has unit %q, declared %q", what, name, m.Unit, unit)
		}
	}
	for name := range declared {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: BENCHMARK.json declares %q, which the run does not emit", what, name)
		}
	}
}

func TestDeclarationListsTheWorkloads(t *testing.T) {
	d := readDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)",
				i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestSmokeEndToEnd runs one operation of every workload untraced: every
// delivery verifies and the six declared end-to-end metrics come out.
func TestSmokeEndToEnd(t *testing.T) {
	d := readDeclaration(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep := runEndToEnd(w, params{seed: 1, seconds: 1, smoke: true})
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", rep.Correct, rep.Attempted, rep.Failed, rep.FirstFailure)
			}
			sameNames(t, w.name, rep.Metrics, d.EndToEnd)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never zero", name, m.Value)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced pass of every workload twice at one
// seed: the declared per-layer names come out (both directions), the
// span file is written, and on the deterministic workloads every exact
// count repeats bit-for-bit.
func TestSmokeTraced(t *testing.T) {
	d := readDeclaration(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			p := params{seed: 7, seconds: 1, smoke: true}
			first := runTraced(w, p, dir)
			if !first.Correct {
				t.Fatalf("traced pass failed: %s", first.FirstFailure)
			}
			sameNames(t, w.name, first.Metrics, d.PerLayer)

			data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if len(tf.Spans) == 0 || len(tf.Workloads) == 0 || len(tf.Rigs) == 0 {
				t.Errorf("trace file has %d spans, %d workload and %d rig statistics",
					len(tf.Spans), len(tf.Workloads), len(tf.Rigs))
			}

			if !w.deterministic {
				if len(first.Exact) != 0 {
					t.Errorf("a workload over real sockets claims exact counts: %v", first.Exact)
				}
				return
			}
			for _, must := range []string{"cluster.virtual_ms", "cluster.sim_mbps", "sim.events_per_transfer", "core.ctrl_per_data"} {
				if i := sort.SearchStrings(first.Exact, must); i == len(first.Exact) || first.Exact[i] != must {
					t.Errorf("%s is not listed as exact", must)
				}
			}
			second := runTraced(w, p, "")
			if !second.Correct {
				t.Fatalf("second traced pass failed: %s", second.FirstFailure)
			}
			for _, name := range first.Exact {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s: %v then %v at the same seed", name, a, b)
				}
			}
		})
	}
}

// TestSeedDecidesTheInputs: the same seed generates the same message,
// another seed another one. live_loop is left out: RunLoopScenario
// transfers its own fixed pattern and the seed only moves the loss.
func TestSeedDecidesTheInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.name == "live_loop" || w.name == "live_udp_bulk" {
			continue // live_udp_bulk generates with seededBytes, checked below without opening sockets
		}
		msg := func(seed uint64) []byte {
			in, err := w.setup(params{seed: seed, smoke: true}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			return in.sims[0].msg
		}
		a, again, b := msg(1), msg(1), msg(2)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 1 generated two different messages", w.name)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 generated the same message", w.name)
		}
	}
	if bytes.Equal(seededBytes(1, 4096), seededBytes(2, 4096)) || !bytes.Equal(seededBytes(1, 4096), seededBytes(1, 4096)) {
		t.Error("seededBytes is not a function of its seed")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := samplesBeyond(40, 75); got != 10 {
		t.Errorf("samples beyond p75 of 40 = %d, want 10", got)
	}
}

// TestSelfTime: a span's self time is its duration minus its children's.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "outer", Start: 0, End: 100, Parent: -1},
		{Name: "inner", Start: 10, End: 40, Parent: 0},
		{Name: "inner", Start: 50, End: 70, Parent: 0},
	}}
	st := tr.reduce(func(span) bool { return true })
	if o := st["outer"]; o.TotalNs != 100 || o.SelfNs != 50 || o.Count != 1 {
		t.Errorf("outer: %+v", *o)
	}
	if in := st["inner"]; in.TotalNs != 50 || in.SelfNs != 50 || in.Count != 2 || in.MeanNs != 25 {
		t.Errorf("inner: %+v", *in)
	}
}
