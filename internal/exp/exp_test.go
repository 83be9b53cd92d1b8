package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rmcast/internal/stats"
)

// TestEveryExperimentRunsQuick executes every registered experiment in
// quick mode and checks the reports are well-formed.
func TestEveryExperimentRunsQuick(t *testing.T) {
	exps := All()
	if len(exps) < 18 {
		t.Fatalf("only %d experiments registered; expected all tables, figures and ablations", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rep, err := e.Run(context.Background(), Options{Quick: true})
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if rep.ID != e.ID {
				t.Errorf("report id %q != experiment id %q", rep.ID, e.ID)
			}
			if len(rep.Tables) == 0 {
				t.Error("report has no tables")
			}
			for _, tab := range rep.Tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %q has no rows", tab.Title)
				}
			}
			var buf bytes.Buffer
			rep.Fprint(&buf)
			if !strings.Contains(buf.String(), e.ID) {
				t.Error("rendered report does not mention its id")
			}
			if e.ID == "ext_speedup" {
				return // its tables hold host wall time
			}
			enc, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("marshal report: %v", err)
			}
			sum := sha256.Sum256(enc)
			if got, want := hex.EncodeToString(sum[:]), goldenReports[e.ID]; got != want {
				t.Errorf("-quick report digest changed:\n got  %s\n want %s", got, want)
			}
		})
	}
}

func TestRegistryOrderAndLookup(t *testing.T) {
	exps := All()
	// Tables 1-2 first, then figures in paper order, then table3, then
	// ablations.
	var ids []string
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if !(pos["table1"] < pos["fig8"] && pos["fig8"] < pos["fig21"] && pos["fig21"] < pos["table3"]) {
		t.Errorf("unexpected experiment order: %v", ids)
	}
	for _, id := range ids {
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%q): %v", id, err)
		}
	}
	if _, err := ByID("nonsense"); err == nil {
		t.Error("ByID accepted an unknown id")
	}
}

// TestPaperShapes checks the paper's qualitative claims for the ACK
// family end to end at -quick scale (N=8): each row runs one experiment
// and asserts its shape against the rendered tables.
func TestPaperShapes(t *testing.T) {
	for _, tc := range []struct {
		id    string
		check func(t *testing.T, rep *Report)
	}{
		// Figure 8: sequential TCP grows linearly with receivers while
		// multicast stays flat.
		{"fig8", func(t *testing.T, rep *Report) {
			tcp, mc := column(t, rep.Tables[0], 1), column(t, rep.Tables[0], 2)
			if r := last(tcp) / tcp[0]; r < 3 {
				t.Errorf("TCP last/first = %.2f, want >= 3 (linear)", r)
			}
			if r := last(mc) / mc[0]; r > 1.6 {
				t.Errorf("ACK last/first = %.2f, want <= 1.6 (flat)", r)
			}
		}},
		// Figure 9: at the largest message the reliable protocol costs
		// more than raw UDP, and most of that is the user-space copy.
		{"fig9", func(t *testing.T, rep *Report) {
			row := rowAt(t, rep.Tables[0], "35000")
			udp, ack, noCopy := atof(t, row[1]), atof(t, row[2]), atof(t, row[3])
			if ack <= udp {
				t.Errorf("at 35000B ACK %.4fs is not slower than UDP %.4fs", ack, udp)
			}
			if noCopy >= ack {
				t.Errorf("at 35000B dropping the copy (%.4fs) does not beat ACK (%.4fs)", noCopy, ack)
			}
		}},
		// Figure 10: larger packets win — fewer acknowledgments.
		{"fig10", func(t *testing.T, rep *Report) {
			tab := rep.Tables[0]
			small, large := slices.Min(column(t, tab, 1)), slices.Min(column(t, tab, len(tab.Header)-1))
			if large >= small {
				t.Errorf("best 50000B time %.4fs is not below best 1300B time %.4fs", large, small)
			}
		}},
		// Figure 11: small messages scale with receivers (ack
		// processing), large ones barely (data transmission).
		{"fig11", func(t *testing.T, rep *Report) {
			tiny, big := column(t, rep.Tables[0], 1), column(t, rep.Tables[1], 1)
			if tr, br := last(tiny)/tiny[0], last(big)/big[0]; tr <= br {
				t.Errorf("1B grows %.2fx from 1 to 8 receivers, not more than 64KiB's %.2fx", tr, br)
			}
		}},
		// Table 2: the sender processes N acks per packet under ACK,
		// N/i under NAK, and one per chain, ⌈N/H⌉, under the tree.
		{"table2", func(t *testing.T, rep *Report) {
			const n, poll, h = 8, 10, 6
			measured := rep.Tables[1]
			for proto, want := range map[string]float64{"ack": n, "nak": float64(n) / poll, "tree": (n + h - 1) / h} {
				if got := atof(t, rowAt(t, measured, proto)[2]); math.Abs(got-want) > 1e-9 {
					t.Errorf("%s: measured %.4f acks per packet, want %.4f", proto, got, want)
				}
			}
		}},
	} {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Run(context.Background(), Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, rep)
		})
	}
}

// TestTable2AnalyticColumn checks table2's measured table prints, for
// every protocol, the same analytic load as the analytic table above it.
func TestTable2AnalyticColumn(t *testing.T) {
	rep, err := runTable2(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	analytic, measured := rep.Tables[0], rep.Tables[1]
	if len(measured.Rows) != len(analytic.Rows) {
		t.Fatalf("measured table has %d rows, analytic %d", len(measured.Rows), len(analytic.Rows))
	}
	for _, row := range analytic.Rows {
		if got := rowAt(t, measured, row[0])[1]; got != row[1] {
			t.Errorf("%s: measured table's analytic cell %q, analytic table's sender recvs/pkt %q", row[0], got, row[1])
		}
	}
}

// TestParallelMatchesSerial is the determinism contract of the worker
// pool: the same experiment rendered from a parallel run must be
// byte-identical to the serial run. Each simulation point builds its
// own seeded cluster, so only collection order could differ — and the
// runner fixes that.
func TestParallelMatchesSerial(t *testing.T) {
	for _, id := range []string{"table3", "fig10", "ablation_loss"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(parallel int) string {
				rep, err := e.Run(context.Background(), Options{Quick: true, Parallel: parallel})
				if err != nil {
					t.Fatalf("parallel=%d: %v", parallel, err)
				}
				var buf bytes.Buffer
				rep.Fprint(&buf)
				return buf.String()
			}
			serial := render(0)
			par := render(-1)
			if serial != par {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
			}
		})
	}
}

// TestParallelReportsDeeplyIdentical extends TestParallelMatchesSerial
// below the rendered text: the full Report structure — every simulated
// data point and metric, not just the rounded table cells — must be
// byte-identical in JSON across worker counts. Together with the
// cluster package's TestRunDeterministicAcrossRepeats this proves the
// parallel engine composes deterministic points without perturbing
// them (pooled events and frames are per-simulation, never shared
// across workers).
func TestParallelReportsDeeplyIdentical(t *testing.T) {
	e, err := ByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	encode := func(parallel int) string {
		rep, err := e.Run(context.Background(), Options{Quick: true, Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("parallel=%d: marshal: %v", parallel, err)
		}
		return string(b)
	}
	serial := encode(0)
	for _, p := range []int{2, -1} {
		if got := encode(p); got != serial {
			t.Errorf("report for parallel=%d differs from serial run", p)
		}
	}
}

// TestShardedPointsMatchSerial is the experiment-level face of the
// sharded engine's determinism contract: a sweep whose points run on
// conservatively synchronized shards must produce a byte-identical
// report to the serial sweep, including when the shard request must be
// clamped (-1 auto) or dropped (incompatible points fall back to
// serial rather than failing the experiment).
func TestShardedPointsMatchSerial(t *testing.T) {
	for _, id := range []string{"fig10", "table3"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			encode := func(shards int) string {
				rep, err := e.Run(context.Background(), Options{Quick: true, Shards: shards})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatalf("shards=%d: marshal: %v", shards, err)
				}
				return string(b)
			}
			serial := encode(0)
			for _, k := range []int{2, 16, -1} {
				if got := encode(k); got != serial {
					t.Errorf("report for shards=%d differs from serial run", k)
				}
			}
		})
	}
}

// TestRunCanceled verifies a canceled context aborts an experiment with
// the context's error rather than a corrupted report.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := ByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{0, -1} {
		if _, err := e.Run(ctx, Options{Quick: true, Parallel: parallel}); err == nil {
			t.Errorf("parallel=%d: canceled run returned no error", parallel)
		} else if !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Errorf("parallel=%d: expected context.Canceled, got %v", parallel, err)
		}
	}
}

// column parses column c of every row of tab.
func column(t *testing.T, tab *stats.Table, c int) []float64 {
	t.Helper()
	var out []float64
	for _, row := range tab.Rows {
		out = append(out, atof(t, row[c]))
	}
	return out
}

// rowAt returns the row of tab whose first cell is key.
func rowAt(t *testing.T, tab *stats.Table, key string) []string {
	t.Helper()
	for _, row := range tab.Rows {
		if row[0] == key {
			return row
		}
	}
	t.Fatalf("table %q has no row %q", tab.Title, key)
	return nil
}

func last(xs []float64) float64 { return xs[len(xs)-1] }

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q", s)
	}
	return v
}

// goldenReports pins the JSON of every experiment's -quick report at
// the default seed: every simulated point, rendered cell and finding.
// A digest may move only with a deliberate change to what that
// experiment measures or prints — never with a change to how its points
// are scheduled. table2's moved once, when its measured table's
// analytic column began reading the load of the session that ran
// (before, every N-dependent entry printed 0). ext_failures' and
// ext_contention's moved once, when an allocation retry began to wait a
// full AllocTimeout after the newest confirmation read instead of after
// the request.
var goldenReports = map[string]string{
	"table1":            "b20bbbe40cef4b50e6bd81cf1e00d74444e3f3527ea17d500406b4ce106755c0",
	"table2":            "138eda946adb0f62843869efc150400f8e5239f21d15edd7b3045ccf80140ea0",
	"fig8":              "296cf9483b5b8e63717abab5a7bcb690cc2921ffc6ceab5b7c4947d10024e969",
	"fig9":              "8e547f5d95d3ebc0458dfef978aa1a15e4d24098217dcdfa0aff256745a243f6",
	"fig10":             "82fddcc786f22b15e1be171f06c3b2eb916099d727e3859b18b5794cfc75a38d",
	"fig11":             "16729d8dde2e64cbf477bd4a40c3d99fa86ebd4a24b3cf6b3d3ea1bbd6bc2921",
	"fig12":             "8e0a495373d48561d2563277f09737d0bf2ef0a3499e432bba2dc33bef19b7ea",
	"fig13":             "f986d0ac77120ce89452cfa829f2a2bea1647ae6aa0eaf453c640ac58465c4be",
	"fig14":             "c23d276b5b5a37efad2315430a2dc7695a0e7be30808ab9afacaf02c0d41f666",
	"fig15":             "adfd25bb6e788aab48225da0e5269a970f2d4986473309bfff00fd0c613c2250",
	"fig16":             "a267319273540785fa0f81a225e1acd5a1fae88275e3b515fa1a5bc348e0f12f",
	"fig17":             "c74b828890b02db58ea9a9ff91f6bf9a763d56b76c0eb9420fc60d75a3e2aa9c",
	"fig18":             "0eaf75ce8b65647d4ef23d78818ffe85add76dbb0e347ca4819848d14cf4c89e",
	"fig19":             "4ef43cc3cfbfb0b0ca272ce9097c4fd69f563ca205b0581610a34fd4c8193347",
	"fig20":             "36eec85d6309555bbcfdaed4f5ee5ad311bb17855d08b61791741864fbd846fc",
	"fig21":             "819ec73089d2205bae6ef5127c172b1436bc4965035e3c3bcb111497b63318db",
	"table3":            "d74c9cafd7a2b0ec26b732a600eada5e0af65e12e56b6f40ab38c87657f5f14c",
	"ablation_gobackn":  "f5e76c9f79d94be31a056c73cbc31e0c7b28369779339b5a2716a6308e05506f",
	"ablation_loss":     "6c56fd07bfa7b8597a06ecf285fc9dda17319134fef122bf006f986977ec97b3",
	"ablation_media":    "37d5f8fdf52b62eab0c90545ee82cb9e23405d009addc2457e7fb587c9ad4457",
	"ablation_naksupp":  "772b3dbb1db811e29f49b5d99acc8abf6089fab389741d2a3aaa35ad6f45aa01",
	"ablation_pacing":   "4d444f1392339eb469f9e0e54fd9af550e9bacaa751c5fb23d5eb62eba666ed3",
	"ablation_relay":    "396738a01333d4f1353b861b1a3738b6e1923d655243895773393e63888adbcf",
	"ablation_suppress": "ef6f55f1c1ad4bc110b9b08899f759de52f0b9ad9d5e693b7fe014dfa163bf56",
	"ext_appsim":        "c9f9ac43771ab42e6df14618cf1d0eedaa6374e6a76bbd8aefc30119623871dd",
	"ext_contention":    "0a8efb8db4f5a989ab681a140a110b1f40aa8911b01675481a42d4cb283e9829",
	"ext_failures":      "d00c731a29bbd3ad58e437808facd99ef3df50d5e649f7197ab79ff6d0f92d27",
	"ext_gigabit":       "78289179ef64510c52121333ffa237cc0363a84c48466239a5a3d6d7cf022a4f",
	"ext_scale":         "3e1f5afd21db19419e3a4aadb3d22b00b0722704dab91c20305ec255511cd0ca",
	"ext_straggler":     "e2971e87ff9bbeca103a9d19c69d5f68aba18d3f20e707c6eb79d8fe168fc393",
	"ext_wirev2":        "7154d4fea4b3c2756e950bbf2c1a3e8e6d3195b3834e111a60ea16d7669781f1",
}
