package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/trace"
)

// The golden digests below were recorded against the pre-optimization
// simulator core (pointer-heap events, map-tracked cancellation,
// unpooled frames). They pin down every observable outcome of a full
// transfer — the complete protocol packet trace, timings, drops,
// per-layer statistics, and the metrics snapshot — so the
// zero-allocation engine (slab event queue, pooled frames, zero-copy
// fragmentation) is proven to change no simulated result, only how fast
// the harness computes it. If one of these digests ever changes, a
// simulator change altered simulated behavior; that must be a deliberate
// model change, never a perf PR side effect.
// Re-recorded when dynamic membership landed: the packet traces were
// proven byte-identical across the change; only the Result schema
// (Left/NeverJoined fields, wider per-type metrics table) moved.
var goldenDigests = map[string]string{
	"ack":      "965a0774ad85d1d0ab6b56e029ad06045b151edd9de4b9e6cdd76be2b1a8b6ee",
	"nak-loss": "16d63797d4399da31b94d4f2657d5f964ab2dfa2374865b37a169a932e20ab7a",
	"ring":     "2d0a12e8438b1156ddc54072f3cf7179eca13435c2954245a99a372e8bb09042",
	"tree":     "3e605192852c78cad0d69372efd0063c038290b8bda9d820dc675a652ea71e6f",
	"nak-bus":  "ffdf291a9381f1d5e99167d1cedfb792f3b690b52491d2b6a0fdf12094d1ad73",
}

// goldenCases covers all four protocol families, both switched and
// shared-bus media, and an injected-loss run that exercises NAK repair,
// retransmission, and frame-drop release paths.
func goldenCases() map[string]func() (Config, core.Config, int) {
	return map[string]func() (Config, core.Config, int){
		"ack": func() (Config, core.Config, int) {
			return Default(30), core.Config{Protocol: core.ProtoACK, PacketSize: 50000, WindowSize: 5}, 200000
		},
		"nak-loss": func() (Config, core.Config, int) {
			ccfg := Default(30)
			ccfg.LossRate = 0.01
			return ccfg, core.Config{Protocol: core.ProtoNAK, PacketSize: 8000, WindowSize: 50, PollInterval: 43}, 200000
		},
		"ring": func() (Config, core.Config, int) {
			return Default(30), core.Config{Protocol: core.ProtoRing, PacketSize: 8000, WindowSize: 50}, 200000
		},
		"tree": func() (Config, core.Config, int) {
			return Default(30), core.Config{Protocol: core.ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: 15}, 200000
		},
		"nak-bus": func() (Config, core.Config, int) {
			ccfg := Default(8)
			ccfg.Topology = SharedBus
			return ccfg, core.Config{Protocol: core.ProtoNAK, PacketSize: 8000, WindowSize: 20, PollInterval: 17}, 60000
		},
	}
}

// digestRun executes one transfer with full tracing and condenses every
// observable outcome into one hash.
func digestRun(t *testing.T, ccfg Config, pcfg core.Config, size int) string {
	t.Helper()
	d, err := digest(ccfg, pcfg, size)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// digest is digestRun for callers off the test's goroutine.
func digest(ccfg Config, pcfg core.Config, size int) (string, error) {
	tb := trace.New(1 << 20)
	ccfg.Trace = tb
	res, err := run(ccfg, pcfg, size)
	if err != nil {
		return "", fmt.Errorf("run: %w", err)
	}
	if !res.Verified {
		return "", fmt.Errorf("delivery not verified")
	}
	h := sha256.New()
	if total := tb.Total(); total > uint64(len(tb.Events())) {
		return "", fmt.Errorf("trace ring overflowed (%d events); raise its capacity", total)
	}
	for _, e := range tb.Events() {
		fmt.Fprintln(h, e.String())
	}
	// JSON-encode the result: encoding/json sorts map keys, so the
	// metrics snapshot serializes deterministically.
	enc, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("marshal result: %w", err)
	}
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestGoldenSimulationDigests is the determinism guard for the
// zero-allocation hot path: byte-identical traces and results across the
// engine rewrite, for all four protocols and both media.
func TestGoldenSimulationDigests(t *testing.T) {
	for name, mk := range goldenCases() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ccfg, pcfg, size := mk()
			got := digestRun(t, ccfg, pcfg, size)
			want := goldenDigests[name]
			if want == "" {
				t.Fatalf("no golden digest recorded for %q; computed %s", name, got)
			}
			if got != want {
				t.Errorf("digest mismatch for %q:\n got  %s\n want %s\nsimulated behavior changed", name, got, want)
			}
		})
	}
}

// TestGoldenDigestStableAcrossRuns proves the digest itself is a sound
// instrument: two identical runs in one process hash identically.
func TestGoldenDigestStableAcrossRuns(t *testing.T) {
	ccfg, pcfg, size := goldenCases()["nak-loss"]()
	a := digestRun(t, ccfg, pcfg, size)
	ccfg, pcfg, size = goldenCases()["nak-loss"]()
	b := digestRun(t, ccfg, pcfg, size)
	if a != b {
		t.Fatalf("identical runs hashed differently: %s vs %s", a, b)
	}
}

// TestConcurrentRunsMatchGolden: runs on several goroutines at once
// each take network pools of their own from the free list and hand them
// back for whichever run comes next, so the switched golden cases —
// four goroutines, three rounds each, every goroutine on another case
// each round and the last round on two shards, a pool per shard — hash
// exactly as they do alone. Under the race detector it also shows that
// no two runs share a pool.
func TestConcurrentRunsMatchGolden(t *testing.T) {
	names := []string{"ack", "nak-loss", "ring", "tree"}
	var wg sync.WaitGroup
	for g := range names {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				name := names[(g+round)%len(names)]
				ccfg, pcfg, size := goldenCases()[name]()
				if round == 2 {
					ccfg.Shards = 2
				}
				got, err := digest(ccfg, pcfg, size)
				switch {
				case err != nil:
					t.Errorf("goroutine %d, round %d, %s: %v", g, round, name, err)
				case got != goldenDigests[name]:
					t.Errorf("goroutine %d, round %d, %s: digest %s, want the golden %s", g, round, name, got, goldenDigests[name])
				}
			}
		}(g)
	}
	wg.Wait()
}
