package cluster

import (
	"bytes"
	"runtime"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/ipnet"
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
// has stocked the free lists, an identical Run draws its receivers'
// message buffers and its network pool from them and allocates little
// beyond the one message it sends. A warm Run measured 1 129–1 130 KiB
// here, 1 024 of them that message (MakeMessage), with or without the
// race detector; the bound allows the testbed and protocol state
// 256 KiB, about twice what they took. A Run that lost its network pool
// grows every host's fragment buffers again, and one that lost its
// message buffers allocates 16 MiB.
func TestRunSteadyStateAllocs(t *testing.T) {
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
	if limit := uint64(size + 256<<10); got >= limit {
		t.Fatalf("a warm Run allocated %d KiB; want under %d KiB, its %d KiB message and 256 KiB",
			got>>10, limit>>10, size>>10)
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

// TestWarmRunDrawsEveryNetworkBufferFromThePool: Run hands its network
// pool back when it is over, and an identical Run after it takes that
// pool and finds every datagram, frame, payload copy and reassembly
// buffer it needs there. nak-loss ends with fragment groups still
// waiting for their reassembly timeout and datagrams still queued in
// sockets; Run reclaims those too. Not parallel: no other run may take
// the pool in between.
func TestWarmRunDrawsEveryNetworkBufferFromThePool(t *testing.T) {
	top := func() *ipnet.Pool {
		netPools.mu.Lock()
		defer netPools.mu.Unlock()
		if len(netPools.list) == 0 {
			return nil
		}
		return netPools.list[len(netPools.list)-1]
	}
	for _, name := range []string{"ack", "nak-loss", "ring", "tree", "nak-bus"} {
		once := func() {
			ccfg, pcfg, size := goldenCases()[name]()
			if res, err := run(ccfg, pcfg, size); err != nil || !res.Verified {
				t.Fatalf("%s: verified=%v err=%v", name, res != nil && res.Verified, err)
			}
		}
		once()
		pool := top()
		if pool == nil {
			t.Fatalf("%s: Run did not hand its pool back", name)
		}
		made := pool.Made()
		once()
		if top() != pool {
			t.Fatalf("%s: the second Run did not take and return the first one's pool", name)
		}
		if n := pool.Made() - made; n != 0 {
			t.Errorf("%s: the second Run made %d network buffers the pool should have held", name, n)
		}
	}
}
