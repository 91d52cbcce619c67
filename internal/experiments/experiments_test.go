package experiments

import (
	"strings"
	"testing"
)

// smallOpts keeps test runs fast while staying above the floor where the
// figures' shapes hold.
func smallOpts() Options {
	return Options{Requests: 30_000, Days: 2, Seed: 3, Utilization: 0.88}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := []Options{
		{Requests: 10, Days: 1, Utilization: 0.9},
		{Requests: 10000, Days: 0, Utilization: 0.9},
		{Requests: 10000, Days: 1, Utilization: 0},
		{Requests: 10000, Days: 1, Utilization: 1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, o)
		}
	}
}

func TestScaleEntries(t *testing.T) {
	o := Options{Requests: PaperRequests, Days: 1, Utilization: 0.9}
	if got := o.ScaleEntries(200_000); got != 200_000 {
		t.Errorf("full-scale ScaleEntries = %d, want 200000", got)
	}
	o.Requests = PaperRequests / 10
	if got := o.ScaleEntries(200_000); got != 20_000 {
		t.Errorf("tenth-scale ScaleEntries = %d, want 20000", got)
	}
	o.Requests = 1000
	if got := o.ScaleEntries(200_000); got < 64 {
		t.Errorf("tiny-scale ScaleEntries = %d, want floor 64", got)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4",
		"fig5", "fig6", "fig9", "fig10", "fig11", "fig12", "fig14", "fig15",
		"ablation-policy", "ablation-gc", "ablation-adaptive", "ablation-bgc",
		"ablation-faults", "lifetime", "stability", "crashsweep", "scrubsweep",
		"tenantsweep", "gcsweep", "chaossweep", "rainsweep", "dftlsweep"}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
	for _, id := range want {
		e, ok := ByID(id)
		if !ok {
			t.Errorf("experiment %q missing", id)
			continue
		}
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %q incomplete", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("ByID accepted unknown id")
	}
	if len(IDs()) != len(want) {
		t.Error("IDs() incomplete")
	}
}

func TestCharacterizationExperiments(t *testing.T) {
	o := smallOpts()
	for _, id := range []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6"} {
		e, _ := ByID(id)
		res, err := e.Run(o, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := res.Table().String()
		if len(out) < 40 || !strings.Contains(out, "\n") {
			t.Errorf("%s rendered suspiciously short output:\n%s", id, out)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	res, err := RunFig1(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 3 workloads × 2 days
		t.Fatalf("fig1 has %d rows, want 6", len(res.Rows))
	}
	var mailBest, webBest float64
	for _, r := range res.Rows {
		if r.RawProb < 0 || r.RawProb > 1 || r.DedupProb < 0 || r.DedupProb > 1 {
			t.Fatalf("probability out of range: %+v", r)
		}
		if r.DedupProb > r.RawProb {
			t.Errorf("%s: dedup reuse %.2f exceeds raw reuse %.2f", r.Day, r.DedupProb, r.RawProb)
		}
		switch r.Day[0] {
		case 'm':
			if r.RawProb > mailBest {
				mailBest = r.RawProb
			}
		case 'w':
			if r.RawProb > webBest {
				webBest = r.RawProb
			}
		}
	}
	// Mail is the most redundant trace; its reuse opportunity must exceed
	// web's (paper: mail peaks at ~86%).
	if mailBest <= webBest {
		t.Errorf("mail reuse %.2f not above web %.2f", mailBest, webBest)
	}
	if mailBest < 0.5 {
		t.Errorf("mail reuse opportunity %.2f too low (paper: up to 0.86)", mailBest)
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := RunFig2(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: only ~30% of values remain live; most are invalidated at
	// least once. Loosely: the never-invalidated fraction is below 60%.
	if res.LiveFraction <= 0 || res.LiveFraction > 0.6 {
		t.Errorf("live fraction = %.2f, want (0, 0.6]", res.LiveFraction)
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := RunFig3(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Writes) != 10 {
		t.Fatalf("want 10 curve points, got %d", len(res.Writes))
	}
	// ~20% of values should account for the large majority of writes,
	// invalidations and rebirths.
	if res.Writes[1].MetricFrac < 0.6 {
		t.Errorf("top-20%% write share = %.2f, want ≥0.6", res.Writes[1].MetricFrac)
	}
	if res.Invalidations[1].MetricFrac < 0.6 {
		t.Errorf("top-20%% invalidation share = %.2f, want ≥0.6", res.Invalidations[1].MetricFrac)
	}
	// Rebirths are the least-concentrated metric (the drifting hot window
	// spreads them); the paper's claim is "most rebirths happen to a small
	// fraction of values" — the top half must dominate.
	if res.Rebirths[1].MetricFrac < 0.35 {
		t.Errorf("top-20%% rebirth share = %.2f, want ≥0.35", res.Rebirths[1].MetricFrac)
	}
	if res.Rebirths[4].MetricFrac < 0.8 {
		t.Errorf("top-50%% rebirth share = %.2f, want ≥0.8", res.Rebirths[4].MetricFrac)
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := RunFig4(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bins) < 3 {
		t.Fatalf("too few popularity bins: %d", len(res.Bins))
	}
	lo, hi := res.Bins[0], res.Bins[len(res.Bins)-1]
	// Fig 4c: the higher the popularity, the more rebirths.
	if hi.AvgRebirths <= lo.AvgRebirths {
		t.Errorf("rebirths not increasing with popularity: low %.2f high %.2f",
			lo.AvgRebirths, hi.AvgRebirths)
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := RunFig5(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for i := 1; i < len(row.Points); i++ {
			if row.Points[i].Writes > row.Points[i-1].Writes {
				t.Errorf("%s: writes increased with buffer size: %+v", row.Day, row.Points)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := RunFig6(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bins) == 0 {
		t.Fatal("no bins")
	}
}

func TestEvaluationMatrixAndFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation matrix in -short mode")
	}
	o := smallOpts()
	m, err := RunMatrix(o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != 6 {
		t.Fatalf("matrix has %d workloads", len(m.Workloads))
	}
	if _, ok := m.Result("mail", SysDVP200K); !ok {
		t.Fatal("matrix missing mail/dvp-200k")
	}

	fig9, err := RunFig9(o, m)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]Fig9Row)
	for _, r := range fig9.Rows {
		byName[r.Workload] = r
	}
	// Headline shapes: positive mean reduction; mail the biggest winner;
	// desktop/trans marginal relative to mail.
	if fig9.Mean200K <= 5 {
		t.Errorf("mean write reduction %.1f%%, want > 5%%", fig9.Mean200K)
	}
	mail, desktop := byName["mail"], byName["desktop"]
	if mail.Red200K <= desktop.Red200K {
		t.Errorf("mail reduction %.1f%% not above desktop %.1f%%", mail.Red200K, desktop.Red200K)
	}
	for _, r := range fig9.Rows {
		if r.RedIdeal+1e-6 < r.Red300K-2 { // ideal is the ceiling (small noise allowed)
			t.Errorf("%s: ideal %.1f%% below 300K %.1f%%", r.Workload, r.RedIdeal, r.Red300K)
		}
		if r.Red200K < r.Red100K-2 {
			t.Errorf("%s: 200K %.1f%% below 100K %.1f%%", r.Workload, r.Red200K, r.Red100K)
		}
	}

	fig10, err := RunFig10(o, m)
	if err != nil {
		t.Fatal(err)
	}
	if fig10.Mean <= 0 {
		t.Errorf("mean erase reduction %.1f%%, want positive", fig10.Mean)
	}

	fig11, err := RunFig11(o, m)
	if err != nil {
		t.Fatal(err)
	}
	if fig11.DVPMean <= 0 {
		t.Errorf("mean latency improvement %.1f%%, want positive", fig11.DVPMean)
	}
	// At this reduced test scale DVP and LX can land within noise of each
	// other; the clear separation shows at default scale (see
	// EXPERIMENTS.md). Guard only against LX beating DVP outright.
	if fig11.DVPMean < fig11.LXMean-3 {
		t.Errorf("DVP mean %.1f%% well below LX-SSD %.1f%%", fig11.DVPMean, fig11.LXMean)
	}

	fig12, err := RunFig12(o, m)
	if err != nil {
		t.Fatal(err)
	}
	if fig12.Mean <= 0 {
		t.Errorf("mean tail improvement %.1f%%, want positive", fig12.Mean)
	}

	fig14, err := RunFig14(o, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fig14.Rows {
		if r.DVPDedup > r.Dedup+1 {
			t.Errorf("%s: combined writes %.1f%% above dedup alone %.1f%%", r.Workload, r.DVPDedup, r.Dedup)
		}
	}
	if fig14.ExtraOverDedup <= 0 {
		t.Errorf("extra reduction over dedup = %.1f%%, want positive", fig14.ExtraOverDedup)
	}

	fig15, err := RunFig15(o, m)
	if err != nil {
		t.Fatal(err)
	}
	if fig15.CombinedMean < fig15.DedupMean-1 {
		t.Errorf("combined latency improvement %.1f%% below dedup alone %.1f%%",
			fig15.CombinedMean, fig15.DedupMean)
	}

	// Every result renders.
	for _, r := range []Tabler{fig9, fig10, fig11, fig12, fig14, fig15} {
		if s := r.Table().String(); len(s) < 40 {
			t.Errorf("short render: %q", s)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "T",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x,y"}, {"2", `say "hi"`}},
		Notes:  []string{"note"},
	}
	text := tbl.String()
	if !strings.Contains(text, "T\n") || !strings.Contains(text, "note") {
		t.Errorf("text render missing pieces:\n%s", text)
	}
	csv := tbl.CSV()
	for _, want := range []string{"# T\n", "a,b\n", `1,"x,y"`, `2,"say ""hi"""`, "# note\n"} {
		if !strings.Contains(csv, want) {
			t.Errorf("CSV missing %q:\n%s", want, csv)
		}
	}
}

func TestEveryExperimentResultIsTabler(t *testing.T) {
	o := smallOpts()
	for _, id := range []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6"} {
		e, _ := ByID(id)
		res, err := e.Run(o, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tbl := res.Table()
		if tbl.Title == "" || len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
			t.Errorf("%s produced an empty table", id)
		}
		if len(tbl.CSV()) < 20 {
			t.Errorf("%s CSV suspiciously short", id)
		}
	}
}

func TestAblationExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sims in -short mode")
	}
	o := smallOpts()

	policy, err := RunAblationPolicy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(policy.Rows) != 6 {
		t.Fatalf("policy rows = %d", len(policy.Rows))
	}
	for _, row := range policy.Rows {
		if row.InfHits < row.LRUHits || row.InfHits < row.MQHits {
			t.Errorf("%s: infinite pool not the ceiling: %+v", row.Workload, row)
		}
	}

	gc, err := RunAblationGC(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(gc.Rows) != 5 {
		t.Fatalf("gc rows = %d", len(gc.Rows))
	}
	// Revivals must not decrease as protection grows.
	if gc.Rows[len(gc.Rows)-1].Revived < gc.Rows[0].Revived {
		t.Errorf("revivals fell with protection: %+v", gc.Rows)
	}

	ad, err := RunAblationAdaptive(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ad.Rows) != 3 {
		t.Fatalf("adaptive rows = %d", len(ad.Rows))
	}
	small, adaptive, large := ad.Rows[0], ad.Rows[1], ad.Rows[2]
	if adaptive.Hits < small.Hits {
		t.Errorf("adaptive (%d hits) below fixed-small (%d)", adaptive.Hits, small.Hits)
	}
	if adaptive.Hits > large.Hits {
		t.Errorf("adaptive (%d hits) above fixed-large ceiling (%d)", adaptive.Hits, large.Hits)
	}

	bgc, err := RunAblationBGC(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(bgc.Rows) != 2 {
		t.Fatalf("bgc rows = %d", len(bgc.Rows))
	}
	if bgc.Rows[1].BackgroundCycles == 0 {
		t.Error("background mode ran no background cycles")
	}
	if bgc.Rows[1].P99 > bgc.Rows[0].P99 {
		t.Errorf("background GC worsened p99: %d vs %d", bgc.Rows[1].P99, bgc.Rows[0].P99)
	}

	for _, r := range []Tabler{policy, gc, ad, bgc} {
		if len(r.Table().CSV()) < 30 {
			t.Error("short ablation render")
		}
	}
}

func TestStabilityExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed matrix in -short mode")
	}
	o := smallOpts()
	o.Requests = 20_000
	res, err := RunStability(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds < 2 || len(res.Rows) != 6 {
		t.Fatalf("stability shape wrong: %+v", res)
	}
	for _, row := range res.Rows {
		if row.Min > row.Mean || row.Mean > row.Max {
			t.Errorf("%s: min/mean/max out of order: %+v", row.Workload, row)
		}
	}
	if res.MeanOfMeans <= 0 {
		t.Errorf("mean of means = %.1f, want positive", res.MeanOfMeans)
	}
}
