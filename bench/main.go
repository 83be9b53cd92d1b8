// Command bench is the repository's load generator and cost ladder: six
// named workloads over the simulator and the live stack, six end-to-end
// numbers on each, and — in a traced pass — one isolated driver per
// layer from the packet codec to live UDP sockets. BENCHMARK.json at
// the root of the repository declares it; README.md here explains it.
//
//	go run . -seed 1                       every workload, end to end
//	go run . -seed 1 -trace 1              every workload, traced pass only
//	go run . -workload sim_small -seconds 15 -json out/a.json
//
// The last line on standard output of a one-workload run is the
// contract's JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// environment is recorded in every result set: numbers from different
// hosts or core counts are not comparable, and nothing here crossed a
// real link.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu_model"`
	Link       string `json:"link"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Link:       linkNote,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// resultSet is what -json writes and bench/compare reads.
type resultSet struct {
	Env       environment `json:"environment"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Smoke     bool        `json:"smoke,omitempty"`
	Workloads []*report   `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all six, in order)")
		seed    = flag.Uint64("seed", 1, "workload seed: every generated input is a pure function of it")
		seconds = flag.Float64("seconds", 12, "how long each workload measures")
		trace   = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		jsonOut = flag.String("json", "", "also write the result set to this file")
		outDir  = flag.String("out", "out", "directory for trace-<workload>.json (traced pass)")
		smoke   = flag.Bool("smoke", false, "one small operation per workload: checks the instrument, measures nothing")
		list    = flag.Bool("list", false, "list the workloads and why each exists")
	)
	flag.Parse()
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-14s op = %s\n%14s %s\n", w.name, w.op, "", w.why)
		}
		return
	}
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace takes 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	env := readEnvironment()
	if env.GOMAXPROCS > env.NumCPU {
		// Timings taken with more Ps than CPUs measure the scheduler.
		fatalf("GOMAXPROCS=%d exceeds the %d CPUs of this host", env.GOMAXPROCS, env.NumCPU)
	}
	run := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatalf("unknown workload %q (see -list)", *name)
		}
		run = []workloadDef{*w}
	}
	p := params{seed: *seed, seconds: *seconds, smoke: *smoke}
	fmt.Printf("# rmcast bench: seed=%d seconds=%g trace=%d %s nproc=%d GOMAXPROCS=%d cpu=%q link=%q\n",
		p.seed, p.seconds, *trace, env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.CPUModel, env.Link)

	set := resultSet{Env: env, Seed: p.seed, Seconds: p.seconds, Smoke: p.smoke}
	failed := false
	for i := range run {
		w := &run[i]
		var rep *report
		if *trace == 1 {
			rep = runTraced(w, p, *outDir)
		} else {
			rep = runEndToEnd(w, p)
		}
		set.Workloads = append(set.Workloads, rep)
		printReport(w, rep)
		if !rep.Correct {
			failed = true
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatalf("writing %s: %v", *jsonOut, err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// printReport prints every metric by name with its unit, then the
// contract's one-line JSON object.
func printReport(w *workloadDef, rep *report) {
	fmt.Printf("workload %s: op = %s\n", w.name, w.op)
	fmt.Printf("  ops=%d transfers_attempted=%d transfers_failed=%d tail=p%g (%d samples beyond it)\n",
		rep.Ops, rep.Attempted, rep.Failed, rep.TailPct, rep.TailBeyond)
	if rep.FirstFailure != "" {
		fmt.Printf("  FAILED: %s\n", rep.FirstFailure)
	}
	exact := map[string]bool{}
	for _, n := range rep.Exact {
		exact[n] = true
	}
	printSet := func(set metricSet, indent string) {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			mark := ""
			if exact[n] {
				mark = "  (exact)"
			}
			fmt.Printf("%s%-34s %16.4f %s%s\n", indent, n, set[n].Value, set[n].Unit, mark)
		}
	}
	printSet(rep.Metrics, "  ")
	if len(rep.Detail) > 0 {
		fmt.Println("  detail (not declared in BENCHMARK.json):")
		printSet(rep.Detail, "    ")
	}
	if rep.Correct {
		line, _ := json.Marshal(struct {
			Correct   bool      `json:"correct"`
			Attempted int       `json:"attempted"`
			Failed    int       `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
		fmt.Println(string(line))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
