package ipnet

import "rmcast/internal/ethernet"

// CloneFrame returns an unpooled deep copy of an in-flight IP fragment
// frame. The clone shares nothing with the original: the fragment
// struct is copied with its pool linkage (frame and payload buffer)
// cleared and the payload bytes are duplicated, so the clone is
// garbage-collected and its Retain/Release are no-ops (no free hook is
// installed).
//
// This is the frame hand-off primitive for cross-shard links: the
// sending shard releases the original back into its shard's pool
// immediately, and only the self-contained clone crosses the shard
// boundary — a pool therefore never sees a frame returned from another
// goroutine.
func CloneFrame(f *ethernet.Frame) *ethernet.Frame {
	frag, ok := f.Payload.(*fragment)
	if !ok {
		panic("ipnet: CloneFrame needs an IP fragment payload")
	}
	cp := *frag
	cp.tf = nil
	cp.owner = nil
	cp.pb = nil
	cp.payload = append([]byte(nil), frag.payload...)
	return &ethernet.Frame{
		Src:       f.Src,
		Dst:       f.Dst,
		WireBytes: f.WireBytes,
		Multicast: f.Multicast,
		Payload:   &cp,
	}
}
