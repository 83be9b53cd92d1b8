package cluster

import (
	"rmcast/internal/core"
)

// MultiRingThreshold is the group size at which ScaleForTopology
// splits the ring protocol's single rotation into one ring per switch
// domain: below it the paper's single ring is comfortable, above it
// the WindowSize > N requirement makes the sender's window (and the
// rotation latency) grow without bound.
const MultiRingThreshold = 256

// ScaleForTopology fills pcfg's topology-derived scaling knobs where
// the caller left them zero, so protocol structure follows the
// physical hierarchy:
//
//   - Tree: TreeHeight becomes the largest switch-domain size (each
//     chain spans about one leaf switch) and, on multi-switch fabrics,
//     TreeLayout becomes blocked so contiguous ranks chain together —
//     hop-by-hop acks stay inside a leaf and only chain-head reports
//     cross the trunks.
//   - Ring (≥ MultiRingThreshold receivers): NumRings becomes the
//     switch-domain count, bounding the window requirement at the ring
//     span instead of N. A zero WindowSize then defaults to span+20.
//
// It never mutates a knob the caller set, and it is an explicit helper
// rather than part of Run: the invariant checkers normalize the same
// config independently, so auto-derivation must happen before the
// config fans out, not silently inside the runner.
func ScaleForTopology(pcfg core.Config, ccfg Config) core.Config {
	spec := ccfg.fabric()
	if spec == nil {
		return pcfg
	}
	hosts := ccfg.NumReceivers + 1
	n := ccfg.NumReceivers
	domains := spec.Domains(hosts)
	switch pcfg.Protocol {
	case core.ProtoTree:
		if pcfg.TreeHeight == 0 {
			h := spec.MaxDomain(hosts)
			if h > n {
				h = n
			}
			if h < 1 {
				h = 1
			}
			pcfg.TreeHeight = h
			if len(domains) > 1 && pcfg.TreeLayout == core.TreeInterleave {
				pcfg.TreeLayout = core.TreeBlocked
			}
		}
	case core.ProtoRing:
		if pcfg.NumRings == 0 && n >= MultiRingThreshold && len(domains) > 1 {
			r := len(domains)
			if r > n {
				r = n
			}
			pcfg.NumRings = r
		}
		if pcfg.WindowSize == 0 {
			probe := pcfg
			probe.NumReceivers = n
			pcfg.WindowSize = probe.RingSpan() + 20
		}
	}
	return pcfg
}
