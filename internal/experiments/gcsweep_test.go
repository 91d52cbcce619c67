package experiments

import (
	"reflect"
	"strings"
	"testing"

	"zombiessd/internal/ftl"
)

// gcsweepOpts shrinks the sweep's per-cell trace so the Go tests stay
// quick; make gc-smoke runs the full floor-sized sweep.
func gcsweepOpts() Options {
	o := smallOpts()
	o.Requests = 6000
	return o
}

// TestNoPreemptBitIdentity is the preemptible-GC determinism pin, in two
// halves. First: with preemption disabled (the zero PreemptConfig — k=0,
// no suspension), the evaluation matrix must still hit the pre-preemption
// golden counters exactly, so merely carrying the partial-GC machinery
// changes nothing. Second: the gcsweep is a pure function of
// (seed, config) — byte-identical across repeated invocations and across
// every -j worker count.
func TestNoPreemptBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix cells in -short mode")
	}
	checkMatrixGoldens(t)

	run := func(jobs int) *GCsweepResult {
		o := gcsweepOpts()
		o.Jobs = jobs
		r, err := RunGCsweep(o)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(1)
	for _, jobs := range []int{2, 8, 1} {
		if again := run(jobs); !reflect.DeepEqual(base, again) {
			t.Fatalf("gcsweep diverged at jobs=%d:\n base %+v\n got %+v", jobs, base, again)
		}
	}
}

// TestGCPolicyArms pins the policy ladder's derivation from the -gc-*
// flags: a disarmed base gets the sweep defaults, an armed base steers the
// partial arms, and the partial (no-suspension) arm always differs from
// partial+susp in exactly the suspension mechanism.
func TestGCPolicyArms(t *testing.T) {
	arms := gcPolicyArms(ftl.PreemptConfig{})
	if len(arms) != 4 {
		t.Fatalf("got %d arms, want 4", len(arms))
	}
	names := []string{"blocking", "soft", "partial", "partial+susp"}
	for i, want := range names {
		if arms[i].Name != want {
			t.Errorf("arm %d is %q, want %q", i, arms[i].Name, want)
		}
	}
	if arms[0].Preempt.Enabled() || arms[0].Soft != 0 {
		t.Errorf("blocking arm not inert: %+v", arms[0])
	}
	if arms[1].Soft != DefaultGCSoftThreshold || arms[1].Preempt.Enabled() {
		t.Errorf("soft arm misconfigured: %+v", arms[1])
	}
	if arms[2].Preempt.PartialK != DefaultGCPartialK || arms[2].Preempt.SuspendEnabled() {
		t.Errorf("partial arm misconfigured: %+v", arms[2].Preempt)
	}
	if !arms[3].Preempt.SuspendEnabled() || arms[3].Preempt.MaxSuspends != DefaultGCMaxSuspends {
		t.Errorf("partial+susp arm misconfigured: %+v", arms[3].Preempt)
	}
	stripped := arms[3].Preempt
	stripped.MaxSuspends, stripped.SuspendCost, stripped.ResumeCost = 0, 0, 0
	if arms[2].Preempt != stripped {
		t.Errorf("partial and partial+susp differ beyond suspension: %+v vs %+v",
			arms[2].Preempt, arms[3].Preempt)
	}

	custom := ftl.PreemptConfig{PartialK: 3, Lookahead: 1, MaxSuspends: 7, SuspendCost: 11, ResumeCost: 13}
	arms = gcPolicyArms(custom)
	if arms[2].Preempt.PartialK != 3 || arms[2].Preempt.Lookahead != 1 || arms[2].Preempt.SuspendEnabled() {
		t.Errorf("custom partial arm lost the flag knobs: %+v", arms[2].Preempt)
	}
	if arms[3].Preempt != custom {
		t.Errorf("custom partial+susp arm = %+v, want %+v", arms[3].Preempt, custom)
	}
}

// TestGCsweepSmoke checks the sweep's report shape and that the policy
// mechanisms actually engage: every (architecture, policy) cell is present
// with a populated read tail, the partial arms drain pages inside idle
// windows, and the antagonist arm carries both tenants under the
// bracketing policies.
func TestGCsweepSmoke(t *testing.T) {
	r, err := RunGCsweep(gcsweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(tenantArchKinds) * 4
	if len(r.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d (5 architectures × 4 policies)", len(r.Cells), wantCells)
	}
	if want := []string{"blocking", "soft", "partial", "partial+susp"}; !reflect.DeepEqual(r.Policies, want) {
		t.Fatalf("policies = %v, want %v", r.Policies, want)
	}
	var gcRuns, partialWindows, partialPages int64
	for _, c := range r.Cells {
		if c.ReadP99 <= 0 || c.ReadP999 < c.ReadP99 {
			t.Errorf("cell %s/%s has a broken read tail: p99=%d p99.9=%d",
				c.Arch, c.Policy, c.ReadP99, c.ReadP999)
		}
		gcRuns += c.GC.Runs
		switch c.Policy {
		case "blocking", "soft":
			if c.GC.PartialWindows != 0 || c.GC.PartialPages != 0 || c.Suspensions != 0 {
				t.Errorf("cell %s/%s ran preemption machinery: %+v", c.Arch, c.Policy, c)
			}
		case "partial":
			if c.Suspensions != 0 {
				t.Errorf("cell %s/partial suspended %d times with suspension off", c.Arch, c.Suspensions)
			}
			partialWindows += c.GC.PartialWindows
			partialPages += c.GC.PartialPages
		case "partial+susp":
			partialWindows += c.GC.PartialWindows
			partialPages += c.GC.PartialPages
		}
	}
	if gcRuns == 0 {
		t.Error("no cell ever ran GC; the sweep exercised nothing")
	}
	if partialWindows == 0 || partialPages == 0 {
		t.Errorf("partial arms never drained (windows=%d pages=%d)", partialWindows, partialPages)
	}

	if len(r.Antag) != 2 {
		t.Fatalf("got %d antagonist cells, want 2", len(r.Antag))
	}
	if r.Antag[0].Policy != "blocking" || r.Antag[1].Policy != "partial+susp" {
		t.Errorf("antagonist policies = %s/%s, want blocking/partial+susp",
			r.Antag[0].Policy, r.Antag[1].Policy)
	}
	for _, a := range r.Antag {
		if len(a.Tenants) != 2 {
			t.Fatalf("antagonist cell %s has %d tenants, want 2", a.Policy, len(a.Tenants))
		}
		for _, tr := range a.Tenants {
			if tr.Requests == 0 {
				t.Errorf("antagonist cell %s tenant %s processed nothing", a.Policy, tr.Name)
			}
		}
	}

	tab := r.Table()
	wantRows := len(r.Cells) + len(r.Antag)*2
	if len(tab.Rows) != wantRows {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), wantRows)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %v has %d columns, header has %d", row, len(row), len(tab.Header))
		}
	}
	header := strings.Join(tab.Header, " ")
	for _, col := range []string{"policy", "read p99", "read p99.9", "gc-blocked", "windows", "suspends"} {
		if !strings.Contains(header, col) {
			t.Errorf("table header lacks %q: %v", col, tab.Header)
		}
	}
	if !strings.Contains(r.Table().String(), "antag:") {
		t.Error("rendered table lacks the antagonist rows")
	}
}

// TestGCsweepOptionPlumbing checks the -gc-* flag surface rejects
// malformed preemption configs at Options.Validate, before any simulation
// runs.
func TestGCsweepOptionPlumbing(t *testing.T) {
	bad := []ftl.PreemptConfig{
		{PartialK: -1},
		{Lookahead: 2},
		{PartialK: 4, Lookahead: 99},
		{MaxSuspends: -1},
		{SuspendCost: 20},
	}
	for i, pc := range bad {
		o := smallOpts()
		o.GCPreempt = pc
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, pc)
		}
	}
	o := smallOpts()
	o.GCPreempt = ftl.PreemptConfig{PartialK: 4, Lookahead: 2, MaxSuspends: 2, SuspendCost: 20, ResumeCost: 20}
	if err := o.Validate(); err != nil {
		t.Errorf("good preemption options rejected: %v", err)
	}
}
