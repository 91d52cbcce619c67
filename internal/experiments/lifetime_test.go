package experiments

import (
	"strings"
	"testing"

	"zombiessd/internal/lifetime"
)

// TestFig9BitIdenticalWithFaultWeight is the fault-aware-GC no-perturbation
// guard: on a perfect drive (zero-fault plan) no block ever accumulates a
// program failure, so the victim-score penalty term must never fire and
// fig9 must render byte-identically whether the weight is 0 or huge.
func TestFig9BitIdenticalWithFaultWeight(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation identity check in -short mode")
	}
	o := smallOpts()
	o.Requests = 8000
	base, err := RunFig9(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.GCFaultWeight = 16
	weighted, err := RunFig9(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b, w := base.Table().String(), weighted.Table().String(); b != w {
		t.Errorf("zero-fault fig9 changed under gc-fault-weight 16:\n--- weight 0\n%s\n--- weight 16\n%s",
			b, w)
	}
}

// TestRunLifetimeExperiment smoke-runs the registered experiment at tiny
// scale: every architecture arm (the five systems plus the dvp-w0
// ablation) must appear in the rendered series with a stop verdict.
func TestRunLifetimeExperiment(t *testing.T) {
	o := smallOpts()
	o.Requests = 4000
	res, err := RunLifetime(o)
	if err != nil {
		t.Fatal(err)
	}
	want := append(lifetime.AllKinds(), lifetime.KindDVPUnweighted)
	if got := len(res.R.Series); got != len(want) {
		t.Fatalf("lifetime ran %d arms, want %d", got, len(want))
	}
	out := res.Table().String()
	for _, k := range want {
		if _, ok := res.R.SeriesByKind(k); !ok {
			t.Errorf("no series for %s", k)
		}
		if !strings.Contains(out, string(k)) {
			t.Errorf("rendered table never mentions %s", k)
		}
	}
	for _, ser := range res.R.Series {
		if ser.Cause == "" || len(ser.Samples) == 0 {
			t.Errorf("%s: empty series (cause %q)", ser.Kind, ser.Cause)
		}
	}
	if !strings.Contains(out, "erase budget") {
		t.Error("rendered table lacks the erase-budget note")
	}
	// The CSV rendering must carry the same rows for plotting.
	if csv := res.Table().CSV(); !strings.Contains(csv, "cum erases") {
		t.Errorf("CSV rendering lacks the header: %q", csv[:min(120, len(csv))])
	}
}

// TestLifetimeRegistered pins the registry entry the CLI dispatches on.
func TestLifetimeRegistered(t *testing.T) {
	e, ok := ByID("lifetime")
	if !ok {
		t.Fatal("lifetime experiment not registered")
	}
	if e.NeedsMatrix {
		t.Error("lifetime must not request the shared evaluation matrix — it ages its own devices")
	}
	if !strings.Contains(strings.ToLower(e.Title), "wear") {
		t.Errorf("lifetime title %q does not mention wear", e.Title)
	}
}
