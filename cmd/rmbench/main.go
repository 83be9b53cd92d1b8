// Command rmbench regenerates the paper's evaluation: every table and
// figure of "An Empirical Study of Reliable Multicast Protocols over
// Ethernet-Connected Networks" (ICPP 2001), plus the ablation
// experiments documented in DESIGN.md, on the simulated testbed.
//
// Usage:
//
//	rmbench -list
//	rmbench -exp fig10
//	rmbench -exp all -quick -parallel -1
//	rmbench -exp table3 -receivers 16 -seed 7 -json
//	rmbench -exp ext_speedup -shards auto
//
// Independent simulation points fan out across -parallel workers with
// output byte-identical to a serial run. Ctrl-C cancels cleanly: the
// current simulations stop at their next checkpoint and rmbench exits
// nonzero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"rmcast/internal/exp"
	"rmcast/internal/topo"
)

func main() { os.Exit(run()) }

// run carries the real main body; main wraps it so the deferred profile
// writers run even on a failing exit.
func run() int {
	var (
		id        = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list      = flag.Bool("list", false, "list available experiments")
		quick     = flag.Bool("quick", false, "reduced sweeps: fewer receivers, smaller messages")
		receivers = flag.Int("receivers", 0, "override the receiver count (default 30, paper scale)")
		seed      = flag.Uint64("seed", 1, "simulation random seed")
		csv       = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		jsonOut   = flag.Bool("json", false, "emit reports as JSON (one object per experiment)")
		parallel  = flag.Int("parallel", 0, "simulation workers per experiment: 0/1 serial, -1 = GOMAXPROCS")
		topoSpec  = flag.String("topo", "", "replace the paper's two-switch testbed with a declarative fabric spec, e.g. fattree:4x8x32@1g,trunk=100m (-topo list prints the canned specs)")
		shardsF   = flag.String("shards", "", "shard each simulation point across switch domains: an integer >= 2, or 'auto' (min of the fabric's domains and GOMAXPROCS); clamped per point, output unchanged")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprof   = flag.String("memprofile", "", "write an allocation profile (taken after the sweep) to this file")
		blockprof = flag.String("blockprofile", "", "write a goroutine blocking profile of the sweep to this file (captures shard-barrier waits)")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rmbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmbench: -memprofile: %v\n", err)
			return 2
		}
		// The profile is written when run returns so it covers the
		// whole sweep; GC first so it reflects live + cumulative
		// allocation truthfully.
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rmbench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}
	if *blockprof != "" {
		f, err := os.Create(*blockprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmbench: -blockprofile: %v\n", err)
			return 2
		}
		// Sample every blocking event: the interesting waits (shard
		// start/ack handshakes, the sweep engine's in-order result
		// hand-off) are few and long, so full sampling stays cheap.
		runtime.SetBlockProfileRate(1)
		defer func() {
			if err := pprof.Lookup("block").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "rmbench: -blockprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-18s %-12s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return 0
	}
	if *csv && *jsonOut {
		fmt.Fprintln(os.Stderr, "rmbench: -csv and -json are mutually exclusive")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := exp.Options{Quick: *quick, Receivers: *receivers, Seed: *seed, Parallel: *parallel}
	switch *shardsF {
	case "":
	case "auto":
		opts.Shards = -1
	default:
		n, err := strconv.Atoi(*shardsF)
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "rmbench: -shards wants an integer >= 2 or 'auto', got %q\n", *shardsF)
			return 2
		}
		opts.Shards = n
	}
	if *topoSpec == "list" {
		for _, c := range topo.Canned() {
			fmt.Printf("%-24s %s\n", c.Spec, c.Note)
		}
		return 0
	}
	if *topoSpec != "" {
		spec, err := topo.Parse(*topoSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmbench: %v\n", err)
			return 2
		}
		// Validate against the largest group the sweeps will build (the
		// experiments themselves sweep n up to the receiver override).
		if err := spec.Validate(opts.ReceiverCap() + 1); err != nil {
			fmt.Fprintf(os.Stderr, "rmbench: %v\n", err)
			return 2
		}
		opts.Topo = &spec
	}
	var targets []exp.Experiment
	if *id == "all" {
		targets = exp.All()
	} else {
		e, err := exp.ByID(*id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		targets = []exp.Experiment{e}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	failed := 0
	for _, e := range targets {
		start := time.Now()
		rep, err := e.Run(ctx, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			if errors.Is(err, context.Canceled) {
				break
			}
			continue
		}
		switch {
		case *jsonOut:
			out := struct {
				*exp.Report
				WallTime time.Duration `json:"wall_time_ns"`
			}{rep, time.Since(start)}
			if err := enc.Encode(out); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				failed++
			}
		case *csv:
			for _, tab := range rep.Tables {
				fmt.Printf("# %s: %s\n", rep.ID, tab.Title)
				tab.CSV(os.Stdout)
			}
		default:
			rep.Fprint(os.Stdout)
			fmt.Printf("(%s wall time: %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
