package cluster

import (
	"runtime"
	"sync"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/ethernet"
	"rmcast/internal/topo"
)

// fatTree returns Default(receivers) on the given fabric.
func fatTree(t *testing.T, fabric string, receivers int) Config {
	t.Helper()
	spec, err := topo.Parse(fabric)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(receivers)
	cfg.Topo = &spec
	return cfg
}

// builtLayout builds a cluster of cfg, hands its buffers back, and
// returns the layout its shape left in the memo. Not for parallel
// tests: another build in between would replace the entry.
func builtLayout(t *testing.T, cfg Config) *topo.Layout {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.recycle()
	lastLayout.Lock()
	defer lastLayout.Unlock()
	return lastLayout.layout
}

// TestOneLayoutPerShape: two clusters of one shape are built from the
// same Layout, and MaxShards reads it too; another host count or link
// rate is another shape and gets a layout of its own.
func TestOneLayoutPerShape(t *testing.T) {
	cfg := fatTree(t, "fattree:2x4x8", 20)
	first := builtLayout(t, cfg)
	if first == nil {
		t.Fatal("New left no layout in the memo")
	}
	if again := builtLayout(t, cfg); again != first {
		t.Fatal("a second New of one shape laid the fabric out again")
	}
	if MaxShards(cfg) != first.MaxShards() {
		t.Fatal("MaxShards disagrees with the shared layout")
	}
	lastLayout.Lock()
	same := lastLayout.layout == first
	lastLayout.Unlock()
	if !same {
		t.Fatal("MaxShards of a built shape laid the fabric out again")
	}

	hosts := cfg
	hosts.NumReceivers = 24
	if l := builtLayout(t, hosts); l == first || l.Hosts != 25 {
		t.Fatalf("24 receivers got the 20-receiver layout (%d hosts)", l.Hosts)
	}
	rate := cfg
	rate.LinkRate = ethernet.Rate1Gbps
	if l := builtLayout(t, rate); l.Switches[0].Rate != ethernet.Rate1Gbps {
		t.Fatalf("a 1 Gbps link rate got a %d bps layout", l.Switches[0].Rate)
	}
	if l := builtLayout(t, cfg); l == first || l.Switches[0].Rate != ethernet.Rate100Mbps {
		t.Fatal("returning to the first shape did not lay it out anew at its own rate")
	}
}

// TestConcurrentRunsOverTwoShapesMatchSerial: eight runs at once over
// two alternating shapes, each New missing the memo the other shape
// just filled, hash exactly as the same runs do one at a time. Under
// the race detector it also shows that sharing a layout shares no
// written state.
func TestConcurrentRunsOverTwoShapesMatchSerial(t *testing.T) {
	shapes := []Config{fatTree(t, "fattree:2x3x6", 15), fatTree(t, "star:3,over=2", 11)}
	pcfg := func(cfg Config) core.Config {
		return ScaleForTopology(protoConfig(core.ProtoTree, cfg.NumReceivers), cfg)
	}
	const size = 40000
	want := make([]string, len(shapes))
	for i, cfg := range shapes {
		d, err := digest(cfg, pcfg(cfg), size)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := shapes[g%len(shapes)]
			got, err := digest(cfg, pcfg(cfg), size)
			switch {
			case err != nil:
				t.Errorf("goroutine %d: %v", g, err)
			case got != want[g%len(shapes)]:
				t.Errorf("goroutine %d: digest %s, want the serial %s", g, got, want[g%len(shapes)])
			}
		}(g)
	}
	wg.Wait()
}

// TestFabricSteadyStateAllocs bounds what a warm Run on a 256-receiver
// fat-tree allocates: it measured 760 to 773 KiB, with and without the
// race detector, and the bound allows 790. Forwarding tables kept in maps
// again measured 965 KiB, and laying the fabric out on every Run, not
// once per shape, 807.
func TestFabricSteadyStateAllocs(t *testing.T) {
	cfg := fatTree(t, "fattree:4x8x33@1g", 256)
	pcfg := ScaleForTopology(core.Config{Protocol: core.ProtoTree, NumReceivers: 256, PacketSize: 1000, WindowSize: 20}, cfg)
	msg := MakeMessage(16 << 10)
	cfg.Message = msg
	once := func() {
		res, err := run(cfg, pcfg, len(msg))
		if err != nil || !res.Verified {
			t.Fatalf("run: verified=%v err=%v", res != nil && res.Verified, err)
		}
	}
	once()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	once()
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) >> 10
	const limit = 790
	if got >= limit {
		t.Fatalf("a warm Run on a 256-receiver fat-tree allocated %d KiB; want under %d KiB", got, limit)
	}
	t.Logf("a warm Run on a 256-receiver fat-tree allocated %d KiB", got)
}
