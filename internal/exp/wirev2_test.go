package exp

import (
	"context"
	"strconv"
	"testing"
)

// TestExtWirev2Directions pins the economics the experiment exists to
// demonstrate: under the streaming sender, v2 must cut bytes on wire
// hard for the compressible workloads, and its overhead on
// incompressible random payloads must stay small.
func TestExtWirev2Directions(t *testing.T) {
	rep, err := runExtWirev2(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Table 0 is the streaming (NAK) sender; columns are
	// workload, framing, goodput, wire (KB), frames, compression.
	wire := map[string]float64{}
	for _, row := range rep.Tables[0].Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad wire cell %q: %v", row[3], err)
		}
		wire[row[0]+"/"+row[1]] = v
	}
	for _, w := range []string{"logs", "json"} {
		v1, v2 := wire[w+"/v1"], wire[w+"/v2"]
		if v1 == 0 || v2 == 0 {
			t.Fatalf("missing %s rows: %v", w, wire)
		}
		if v2 >= 0.6*v1 {
			t.Errorf("%s: v2 wire %.0f KB is not well under v1's %.0f KB", w, v2, v1)
		}
	}
	if v1, v2 := wire["random/v1"], wire["random/v2"]; v2 > 1.1*v1 {
		t.Errorf("random: v2 overhead too high: %.0f KB vs v1 %.0f KB", v2, v1)
	}
	if len(rep.Findings) == 0 {
		t.Error("no findings")
	}

	// The last table attributes the saving: coalescing alone cannot
	// save bytes (it adds a length prefix per packet and a v2 envelope
	// per carrier) but must save frames; compression alone carries the
	// byte win at v1's frame count.
	attrib := rep.Tables[len(rep.Tables)-1]
	kb, frames := map[string]float64{}, map[string]float64{}
	for _, row := range attrib.Rows {
		k := row[0] + "/" + row[1]
		if kb[k], err = strconv.ParseFloat(row[3], 64); err != nil {
			t.Fatalf("bad wire cell %q: %v", row[3], err)
		}
		if frames[k], err = strconv.ParseFloat(row[4], 64); err != nil {
			t.Fatalf("bad frames cell %q: %v", row[4], err)
		}
	}
	if len(attrib.Rows) != 8 {
		t.Fatalf("attribution table has %d rows, want four arms on logs and json", len(attrib.Rows))
	}
	for _, w := range []string{"logs", "json"} {
		v1, coalesce, compress := kb[w+"/v1"], kb[w+"/v2 coalescing only"], kb[w+"/v2 compression only"]
		if v1 != wire[w+"/v1"] || kb[w+"/v2 both"] != wire[w+"/v2"] {
			t.Errorf("%s: attribution v1/both rows disagree with the framing table", w)
		}
		if coalesce < v1 {
			t.Errorf("%s: coalescing alone saved bytes (%.2f KB vs v1 %.2f KB)", w, coalesce, v1)
		}
		if frames[w+"/v2 coalescing only"] >= frames[w+"/v1"] {
			t.Errorf("%s: coalescing alone saved no frames", w)
		}
		if compress >= 0.7*v1 {
			t.Errorf("%s: compression alone %.2f KB is not under 70%% of v1's %.2f KB", w, compress, v1)
		}
		if frames[w+"/v2 compression only"] != frames[w+"/v1"] {
			t.Errorf("%s: compression alone changed the frame count; the carrier floor still coalesces", w)
		}
	}
}
