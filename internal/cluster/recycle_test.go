package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/ipnet"
	"rmcast/internal/packet"
	"rmcast/internal/sim"
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
// has stocked the free lists, an identical Run draws its network pool
// from them, holds no receiver message buffer (its receivers verify
// against the message), and allocates little beyond the one message it
// sends. A warm Run measured 1 102 KiB here, 1 024 of them that message
// (MakeMessage); the bound allows the testbed and protocol state
// 256 KiB, about three times what they took. A Run that lost its
// network pool grows every host's fragment buffers again, and one whose
// receivers copied into buffers they never handed back would allocate
// 16 MiB.
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

// TestRunHoldsNoReceiverBuffer: a Run whose receivers all verify
// delivers the message it sent itself, to every receiver, and takes no
// buffer from core's free list; a receiver that meets a corrupt
// payload delivers a buffer of its own holding exactly what it stored.
// Not parallel: no other run may use the free list in between.
func TestRunHoldsNoReceiverBuffer(t *testing.T) {
	for _, name := range []string{"ack", "nak-loss", "ring", "tree", "nak-bus"} {
		ccfg, pcfg, size := goldenCases()[name]()
		msg := MakeMessage(size)
		ccfg.Message = msg
		if res, err := run(ccfg, pcfg, size); err != nil || !res.Verified {
			t.Fatalf("%s: warm-up run: verified=%v err=%v", name, res != nil && res.Verified, err)
		}
		buffers, held := core.FreeMessagesForTests()
		deliveries := 0
		ccfg.OnDeliver = func(rank core.NodeID, _ time.Duration, payload []byte) {
			deliveries++
			if len(payload) != size || &payload[0] != &msg[0] {
				t.Errorf("%s: rank %d was delivered a copy, not the message", name, rank)
			}
		}
		if res, err := run(ccfg, pcfg, size); err != nil || !res.Verified {
			t.Fatalf("%s: verified=%v err=%v", name, res != nil && res.Verified, err)
		}
		if deliveries != ccfg.NumReceivers {
			t.Errorf("%s: %d deliveries, want %d", name, deliveries, ccfg.NumReceivers)
		}
		if b, n := core.FreeMessagesForTests(); b != buffers || n != held {
			t.Errorf("%s: a verified Run moved the free list from %d buffers (%d B) to %d (%d B)",
				name, buffers, held, b, n)
		}
	}

	// Flip one payload byte of one data frame at rank 3, once: v1 frames
	// carry no checksum, so the receiver stores it and delivers it.
	const victim, size = 3, 60_000
	ccfg := Default(6)
	pcfg := core.Config{Protocol: core.ProtoACK, PacketSize: 1000, WindowSize: 8}
	msg := MakeMessage(size)
	ccfg.Message = msg
	flipped := false
	ccfg.RxMangle = func(rank int, frame []byte) []byte {
		if flipped || rank != victim || packet.Type(frame[2]) != packet.TypeData ||
			binary.BigEndian.Uint32(frame[8:12]) != 7 {
			return frame
		}
		flipped = true
		mut := append([]byte(nil), frame...)
		mut[packet.HeaderLen+5] ^= 0x40
		return mut
	}
	var got []byte
	ccfg.OnDeliver = func(rank core.NodeID, _ time.Duration, payload []byte) {
		aliased := &payload[0] == &msg[0]
		if rank == victim {
			if aliased {
				t.Error("the corrupted receiver delivered the message itself")
			}
			got = append([]byte(nil), payload...)
		} else if !aliased {
			t.Errorf("rank %d was delivered a copy, not the message", rank)
		}
	}
	res, err := run(ccfg, pcfg, size)
	if err != nil || !flipped || res.Verified || slices.Contains(res.Delivered, victim) {
		t.Fatalf("flipped=%v: verified=%v delivered=%v err=%v; want rank %d alone unverified",
			flipped, res != nil && res.Verified, res.Delivered, err, victim)
	}
	want := append([]byte(nil), msg...)
	want[7*1000+5] ^= 0x40
	if !bytes.Equal(got, want) {
		t.Error("the corrupted receiver did not deliver exactly the bytes it stored")
	}
	if !bytes.Equal(msg, MakeMessage(size)) {
		t.Error("a receiver wrote to the run's message")
	}
}

// TestSessionKeepsDeliveredAcrossRuns: a Session's Delivered is the
// caller's — no later run, drawing on the pool that earlier runs
// stocked, may be handed a buffer a Session still shows. A verified Run
// neither stocks nor draws on the pool, so the runs here are Sessions
// whose buffers are handed back as a Run's would be.
func TestSessionKeepsDeliveredAcrossRuns(t *testing.T) {
	const receivers, size = 6, 200_000
	pcfg := protoConfig(core.ProtoACK, receivers)
	other := bytes.Repeat([]byte{0x5A}, size)
	oneShot := func() {
		c, err := New(Default(receivers))
		if err != nil {
			t.Fatal(err)
		}
		ses, err := NewSession(c, core.SenderID, Port, pcfg, other)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ses.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		for h := 1; h < len(ses.Delivered); h++ {
			if !bytes.Equal(ses.Delivered[h], other) {
				t.Fatalf("host %d: the stocking session delivered a corrupted message", h)
			}
		}
		ses.t.release()
	}
	oneShot() // stock the pool
	if n, _ := core.FreeMessagesForTests(); n == 0 {
		t.Fatal("the stocking session left the pool empty")
	}
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
		p, _ := netPools.Get()
		if p != nil {
			netPools.Put(p)
		}
		return p
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

// TestDrainedRunMultiReturnsEveryNetworkBuffer is the network pools'
// leak oracle. RunMulti runs until the fabric drains, so once it is over
// no event, socket or fragment group holds a network buffer: every
// datagram, frame, payload copy and reassembly group a pool made must
// be back on its free lists. Each golden case runs as a one-session
// RunMulti, serially and, where the engine allows, on two shards, whose
// two pools are checked alike. Not parallel: no other run may take the
// pools in between.
func TestDrainedRunMultiReturnsEveryNetworkBuffer(t *testing.T) {
	for _, name := range []string{"ack", "nak-loss", "ring", "tree", "nak-bus"} {
		for _, shards := range []int{0, 2} {
			ccfg, pcfg, size := goldenCases()[name]()
			if shards > 0 && ccfg.Topology == SharedBus {
				continue // the bus is one collision domain: nothing to shard
			}
			ccfg.Shards = shards
			pcfg.NumReceivers = ccfg.NumReceivers
			spec := SessionSpec{Proto: pcfg, MsgSize: size}
			for h := 1; h <= ccfg.NumReceivers; h++ {
				spec.Receivers = append(spec.Receivers, h)
			}
			res, err := RunMulti(context.Background(), ccfg, []SessionSpec{spec}, nil)
			if err != nil || !res.Sessions[0].Verified {
				t.Fatalf("%s on %d shards: verified=%v err=%v", name, shards, res != nil && res.Sessions[0].Verified, err)
			}
			var pools []*ipnet.Pool
			for i := 0; i < max(shards, 1); i++ {
				p, ok := netPools.Get()
				if !ok {
					t.Fatalf("%s on %d shards: RunMulti handed back %d pools", name, shards, i)
				}
				pools = append(pools, p)
			}
			for i := len(pools) - 1; i >= 0; i-- {
				p := pools[i]
				netPools.Put(p)
				if p.Idle() != p.Made() {
					t.Errorf("%s on %d shards: a pool has %d of the %d buffers it made on its free lists",
						name, shards, p.Idle(), p.Made())
				}
			}
		}
	}
}

// TestRunHandsBackAnEmptySimulator: Run hands its simulator back
// emptied, events still pending at the end included. nak-loss stops
// with fragment groups waiting on their 1 s reassembly timers, later
// than any next run of these cases ends, so a simulator that kept them
// would pass every digest here; the one sim.New hands out next must
// instead have nothing queued and fire nothing run out to 10 s. Not
// parallel: no other run may take the simulator in between.
func TestRunHandsBackAnEmptySimulator(t *testing.T) {
	ccfg, pcfg, size := goldenCases()["nak-loss"]()
	if res, err := run(ccfg, pcfg, size); err != nil || !res.Verified {
		t.Fatalf("nak-loss: verified=%v err=%v", res != nil && res.Verified, err)
	}
	s := sim.New()
	defer s.Release()
	if s.SlabSize() == 0 {
		t.Fatal("Run did not hand its simulator back")
	}
	if at, ok := s.NextAt(); ok {
		t.Errorf("the recycled simulator has an event due at %v", at)
	}
	if n := s.Pending(); n != 0 {
		t.Errorf("the recycled simulator has %d events pending", n)
	}
	s.RunUntil(10 * time.Second)
	if n := s.Fired(); n != 0 {
		t.Errorf("the recycled simulator fired %d events left by the previous run", n)
	}
}
