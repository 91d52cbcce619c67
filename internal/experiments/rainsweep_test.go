package experiments

import (
	"reflect"
	"testing"
)

// TestRainsweepDieFailureSurvival is the acceptance gate for the RAIN
// work: on every architecture the parity-on arm must ride out a whole-die
// failure with zero lost pages and a clean oracle, while its parity-off
// control — same die, same kill op — demonstrably loses data. The parity
// arms must also show the machinery actually ran: pages reconstructed and
// a nonzero parity write tax.
func TestRainsweepDieFailureSurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("rainsweep replays ten full device lives")
	}
	r, err := RunRainsweep(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Arms) != 10 {
		t.Fatalf("swept %d arms, want 5 architectures × parity off/on", len(r.Arms))
	}
	for _, a := range r.Arms {
		if a.Parity {
			if a.LostPages != 0 {
				t.Errorf("%s parity-on: %d pages lost; a die failure under parity must lose nothing", a.Arch, a.LostPages)
			}
			if a.DataLoss != 0 {
				t.Errorf("%s parity-on: %d oracle violations", a.Arch, a.DataLoss)
			}
			if a.Rain.ReconstructedPages == 0 {
				t.Errorf("%s parity-on: survived without reconstructing anything — die kill ineffective?", a.Arch)
			}
			if a.Rain.ParityPrograms == 0 || a.ParityTax() <= 0 {
				t.Errorf("%s parity-on: no parity writes recorded", a.Arch)
			}
		} else {
			if a.LostPages == 0 {
				t.Errorf("%s parity-off: lost nothing to a whole-die failure — control arm proves nothing", a.Arch)
			}
			if a.DataLoss == 0 {
				t.Errorf("%s parity-off: oracle clean despite a dead die", a.Arch)
			}
		}
	}
	t.Logf("\n%s", r.Table())
}

// TestNoRainBitIdentity pins two invariants of the RAIN work. First, with
// Options.Rain zero no stripe tracker is built anywhere and the evaluation
// matrix counters stay byte-identical to the pre-RAIN goldens (the
// device-layer wrapper-absence half lives in internal/sim's
// TestRainWrapperPresence). Second, the rainsweep's output is a pure
// function of its options: identical for every worker count.
func TestNoRainBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("bit-identity check replays the evaluation matrix")
	}
	checkMatrixGoldens(t)

	var want *RainsweepResult
	for _, jobs := range []int{1, 8} {
		o := smallOpts()
		o.Jobs = jobs
		got, err := RunRainsweep(o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("jobs=%d drifted from the jobs=1 sweep:\n got %+v\nwant %+v", jobs, got, want)
		}
	}
}
