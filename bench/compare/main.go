// Command compare reads result sets written by `bench -json` and judges
// one commit against another by the rules the benchmark fixed in
// advance (the choosing-metrics guide, sections 6 and 8):
//
//   - every pairing of workload and end-to-end metric gets each side's
//     median and quartiles over its runs;
//   - a regression is a median worse than the base's by more than the
//     metric's bound in BENCHMARK.json;
//   - where the base's own run-to-run spread (the distance between its
//     quartiles) exceeds the bound, the verdict is "unresolved", never
//     "unchanged";
//   - a gain needs at least ten alternating pairs, the head winning at
//     least nine tenths of them (ties count for neither side), and
//     medians further apart than the base's spread;
//   - counts the program makes that repeat bit-for-bit at a seed (the
//     result set lists them as exact) must be equal in every run of
//     both sides.
//
// Run i of -base is paired with run i of -head, so collect them
// alternating which side runs first. With -base alone it prints that
// side's medians, quartiles and spreads: the steadiness check.
//
//	go run ./compare -base 'out/base-*.json' -head 'out/head-*.json'
//
// The exit code is the gate: 1 on any regression, exact-count mismatch
// or new failed transfer, 0 otherwise; 2 on bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Exact     []string          `json:"exact"`
}

type resultSet struct {
	Seed      uint64    `json:"seed"`
	Workloads []*report `json:"workloads"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// quartiles returns the first quartile, the median and the third
// quartile the way Python's statistics.quantiles(values, n=4) does (the
// "exclusive" method), so spreads computed here match the ones the
// benchmark's contract is checked with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	if len(data) == 1 {
		return data[0], data[0], data[0]
	}
	const n = 4
	m := len(data) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(data)-1 {
			j = len(data) - 1
		}
		delta := i*m - j*n
		q[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// side is one commit's runs.
type side struct {
	sets []resultSet
}

func load(pattern string) (side, error) {
	var s side
	var files []string
	for _, part := range strings.Split(pattern, ",") {
		matches, err := filepath.Glob(part)
		if err != nil {
			return s, err
		}
		if len(matches) == 0 {
			return s, fmt.Errorf("no result set matches %q", part)
		}
		sort.Strings(matches)
		files = append(files, matches...)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return s, err
		}
		var rs resultSet
		if err := json.Unmarshal(data, &rs); err != nil {
			return s, fmt.Errorf("%s: %w", f, err)
		}
		s.sets = append(s.sets, rs)
	}
	return s, nil
}

// series is one metric on one workload over a side's runs, in run
// order; ok[i] is false where run i does not carry it.
type series struct {
	vals   []float64
	ok     []bool
	exact  bool
	failed int
}

func (s side) series(workload, name string, traced bool) series {
	var out series
	for _, rs := range s.sets {
		v, ok := math.NaN(), false
		for _, rep := range rs.Workloads {
			if rep.Workload != workload || rep.Traced != traced {
				continue
			}
			out.failed += rep.Failed
			if m, has := rep.Metrics[name]; has {
				v, ok = m.Value, true
			}
			for _, e := range rep.Exact {
				if e == name {
					out.exact = true
				}
			}
			break
		}
		out.vals = append(out.vals, v)
		out.ok = append(out.ok, ok)
	}
	return out
}

func (s series) present() []float64 {
	var out []float64
	for i, v := range s.vals {
		if s.ok[i] {
			out = append(out, v)
		}
	}
	return out
}

// worse reports by what share of a, b is worse than a (positive = worse).
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

func findBenchmark(path string) (benchmark, error) {
	var b benchmark
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json", "../../BENCHMARK.json"}
	}
	for _, c := range candidates {
		data, err := os.ReadFile(c)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(data, &b); err != nil {
			return b, fmt.Errorf("%s: %w", c, err)
		}
		return b, nil
	}
	return b, fmt.Errorf("BENCHMARK.json not found (tried %s); pass -benchmark", strings.Join(candidates, ", "))
}

func main() {
	var (
		basePat  = flag.String("base", "", "result sets of the parent commit: comma-separated files or globs, in run order")
		headPat  = flag.String("head", "", "result sets of the change, paired by position with -base (omit to print -base's spreads)")
		benchArg = flag.String("benchmark", "", "path to BENCHMARK.json (default: found upwards from here)")
	)
	flag.Parse()
	if *basePat == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: compare -base <result sets> [-head <result sets>] [-benchmark BENCHMARK.json]")
		os.Exit(2)
	}
	bm, err := findBenchmark(*benchArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	base, err := load(*basePat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	var head side
	if *headPat != "" {
		if head, err = load(*headPat); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
	}
	if judge(os.Stdout, bm, base, head) {
		os.Exit(1)
	}
}

// judge prints the table and reports whether the gate fails.
func judge(w io.Writer, bm benchmark, base, head side) (gateFails bool) {
	paired := len(head.sets) > 0
	counts := map[string]int{}
	row := func(workload string, d declared, traced bool) {
		b := base.series(workload, d.Name, traced)
		bv := b.present()
		if len(bv) == 0 {
			return
		}
		bq1, bmed, bq3 := quartiles(bv)
		spread := 0.0
		if bmed != 0 {
			spread = (bq3 - bq1) / math.Abs(bmed)
		}
		if !paired {
			verdict := ""
			switch {
			case b.exact && !allEqual(bv):
				verdict, gateFails = "EXACT-MISMATCH", true
			case b.exact:
				verdict = "exact"
			case d.Bound > 0 && d.Name != "setup_s" && spread > d.Bound:
				verdict = "SPREAD>BOUND"
			case d.Bound > 0 && d.Name != "setup_s" && spread > d.Bound/3:
				verdict = "spread>bound/3"
			}
			counts[verdict]++
			fmt.Fprintf(w, "%-14s %-34s %-7s n=%-2d median %14.4f  [%14.4f, %14.4f]  spread %6.2f%%  %s\n",
				workload, d.Name, d.Unit, len(bv), bmed, bq1, bq3, 100*spread, verdict)
			return
		}
		h := head.series(workload, d.Name, traced)
		hv := h.present()
		if len(hv) == 0 {
			fmt.Fprintf(w, "%-14s %-34s missing on the head side\n", workload, d.Name)
			gateFails = true
			return
		}
		hq1, hmed, hq3 := quartiles(hv)
		wins, losses, pairs := 0, 0, 0
		for i := 0; i < len(b.vals) && i < len(h.vals); i++ {
			if !b.ok[i] || !h.ok[i] {
				continue
			}
			pairs++
			switch delta := worse(b.vals[i], h.vals[i], d.Better); {
			case delta < 0:
				wins++
			case delta > 0:
				losses++
			}
		}
		change := worse(bmed, hmed, d.Better)
		verdict := "unchanged"
		switch {
		case b.exact || h.exact:
			verdict = "exact"
			if !allEqual(append(append([]float64(nil), bv...), hv...)) {
				verdict, gateFails = "EXACT-MISMATCH", true
			}
		case d.Bound > 0 && change > d.Bound:
			verdict, gateFails = "REGRESSION", true
		case pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && math.Abs(hmed-bmed) > bq3-bq1:
			verdict = "gain"
		case d.Bound > 0 && spread > d.Bound:
			verdict = "unresolved"
		case d.Bound == 0:
			verdict = "-" // a per-layer number carries no bound: it explains, it does not gate
		}
		if h.failed > b.failed && d.Name == "transfer_ms_p50" {
			verdict, gateFails = "MORE-FAILURES", true
		}
		counts[verdict]++
		fmt.Fprintf(w, "%-14s %-34s %-7s base %14.4f [%14.4f, %14.4f]  head %14.4f [%14.4f, %14.4f]  %+7.2f%% worse  head won %d/%d lost %d  %s\n",
			workload, d.Name, d.Unit, bmed, bq1, bq3, hmed, hq1, hq3, 100*change, wins, pairs, losses, verdict)
	}
	for _, wl := range bm.Workloads {
		for _, d := range bm.EndToEnd {
			row(wl.Name, d, false)
		}
		for _, d := range bm.PerLayer {
			row(wl.Name, d, true)
		}
	}
	var keys []string
	for k := range counts {
		if k != "" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "\nsummary:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, counts[k])
	}
	if paired && len(base.sets) < 10 {
		fmt.Fprintf(w, "\nnote: %d pairs; a gain can be claimed only from ten or more", len(base.sets))
	}
	fmt.Fprintln(w)
	return gateFails
}
