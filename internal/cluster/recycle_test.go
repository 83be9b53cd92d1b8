package cluster

import (
	"bytes"
	"runtime"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/packet"
	"rmcast/internal/trace"
)

// TestScribbledScratchPacketChangesNothing drives one golden scenario
// per protocol with every node's decoded packet overwritten the moment
// its handler returns — what the codec's scratch packet is to the next
// datagram, made hostile. An endpoint that kept the *Packet (or read it
// after returning) would trace, acknowledge or deliver differently; the
// run must instead match the unscribbled one event for event.
func TestScribbledScratchPacketChangesNothing(t *testing.T) {
	events := func(t *testing.T, tb *trace.Buffer) []trace.Event {
		if total := tb.Total(); total > uint64(len(tb.Events())) {
			t.Fatalf("trace ring overflowed (%d events); raise its capacity", total)
		}
		return tb.Events()
	}
	for _, name := range []string{"ack", "nak-loss", "ring", "tree"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ccfg, pcfg, size := goldenCases()[name]()
			ccfg.Trace = trace.New(1 << 20)
			if _, err := run(ccfg, pcfg, size); err != nil {
				t.Fatal(err)
			}
			want := events(t, ccfg.Trace)

			ccfg, pcfg, size = goldenCases()[name]()
			ccfg.Trace = trace.New(1 << 20)
			c, err := New(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			msg := MakeMessage(size)
			ses, err := NewSession(c, core.SenderID, Port, pcfg, msg)
			if err != nil {
				t.Fatal(err)
			}
			scribbles := 0
			for _, e := range ses.t.envs {
				handle := e.emit
				e.emit = func(p *packet.Packet) {
					handle(p)
					*p = packet.Packet{Type: packet.TypeData, Flags: 0xFF, Src: 0xFFFF,
						MsgID: 0xDBDBDBDB, Seq: 0xDBDBDBDB, Aux: 0xDBDBDBDB, Payload: []byte("scribbled")}
					scribbles++
				}
			}
			if _, err := ses.RunToCompletion(); err != nil {
				t.Fatal(err)
			}
			got := events(t, ccfg.Trace)
			if scribbles == 0 || len(got) != len(want) {
				t.Fatalf("scribbled run traced %d events over %d scribbles, plain run %d", len(got), scribbles, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d differs:\n plain     %v\n scribbled %v", i, want[i], got[i])
				}
			}
			for h := 1; h < len(ses.Delivered); h++ {
				if !bytes.Equal(ses.Delivered[h], msg) {
					t.Fatalf("host %d delivered a corrupted message under scribbling", h)
				}
			}
		})
	}
}

// TestRunSteadyStateAllocs catches a lost release: once a warm-up Run
// has stocked the pool, an identical Run draws its receivers' message
// buffers from it and allocates a small fraction of what fresh buffers
// would cost.
func TestRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const receivers, size = 16, 1 << 20
	once := func() {
		res, err := run(Default(receivers), protoConfig(core.ProtoNAK, receivers), size)
		if err != nil || !res.Verified {
			t.Fatalf("run: verified=%v err=%v", res != nil && res.Verified, err)
		}
	}
	once()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	once()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(receivers * size / 4); got >= limit {
		t.Fatalf("a warm Run allocated %d KiB; want under %d KiB, a quarter of its %d receiver buffers",
			got>>10, limit>>10, receivers)
	}
	t.Logf("a warm Run allocated %d KiB against %d KiB of receiver buffers", got>>10, receivers*size>>10)
}

// TestSessionKeepsDeliveredAcrossRuns: a Session's Delivered is the
// caller's — no later Run, drawing on the pool that earlier Runs
// stocked, may be handed a buffer a Session still shows.
func TestSessionKeepsDeliveredAcrossRuns(t *testing.T) {
	const receivers, size = 6, 200_000
	pcfg := protoConfig(core.ProtoACK, receivers)
	other := bytes.Repeat([]byte{0x5A}, size)
	oneShot := func() {
		ccfg := Default(receivers)
		ccfg.Message = other
		if res, err := run(ccfg, pcfg, size); err != nil || !res.Verified {
			t.Fatalf("run: verified=%v err=%v", res != nil && res.Verified, err)
		}
	}
	oneShot() // stock the pool
	c, err := New(Default(receivers))
	if err != nil {
		t.Fatal(err)
	}
	msg := MakeMessage(size)
	ses, err := NewSession(c, 2, Port, pcfg, msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	oneShot() // would overwrite any buffer the session had given back
	for h, got := range ses.Delivered {
		if h != 2 && !bytes.Equal(got, msg) {
			t.Fatalf("host %d: Session.Delivered changed after a later Run", h)
		}
	}
}
