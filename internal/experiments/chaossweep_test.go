package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// chaosOpts is the soak scale used by the chaos tests: small enough for CI,
// large enough that five architectures × six cycles clear the acceptance
// floor of 25 crash→recover→continue cycles.
func chaosOpts() Options {
	o := smallOpts()
	o.ChaosSeed = 7
	return o
}

// TestChaosSoak is the acceptance gate for the chaos harness: every
// architecture must survive its full schedule of mid-operation power
// losses — composed with program/erase faults, RBER decay and the health
// governor — with zero integrity-oracle violations and zero lost valid
// pages, and the run as a whole must exercise at least 25 cycles.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a full multi-life sweep")
	}
	r, err := RunChaossweep(chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Arms) != 5 {
		t.Fatalf("soaked %d architectures, want 5", len(r.Arms))
	}
	total := 0
	for _, a := range r.Arms {
		if a.Crashes != a.Cycles {
			t.Errorf("%s: %d of %d scheduled crashes fired", a.Arch, a.Crashes, a.Cycles)
		}
		if a.Violations != 0 {
			t.Errorf("%s: %d oracle violations", a.Arch, a.Violations)
		}
		if a.LostPages != 0 {
			t.Errorf("%s: %d valid pages lost", a.Arch, a.LostPages)
		}
		if !a.Survived {
			t.Errorf("%s: drive went dead mid-soak (final state %v)", a.Arch, a.State)
		}
		total += a.Crashes
	}
	if total < 25 {
		t.Errorf("soak exercised %d crash cycles across all arms, want ≥ 25", total)
	}
	t.Logf("\n%s", r.Table())
}

// TestNoHealthBitIdentity pins two invariants of the governor work. First,
// with Options.Health zero no device is wrapped and the evaluation matrix
// counters stay byte-identical to the pre-governor goldens. Second, the
// chaossweep's output is a pure function of its options: identical for
// every worker count.
func TestNoHealthBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("bit-identity check replays the evaluation matrix")
	}
	checkMatrixGoldens(t)

	var want *ChaossweepResult
	for _, jobs := range []int{1, 2, 8, 1} {
		o := chaosOpts()
		o.Jobs = jobs
		got, err := RunChaossweep(o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("jobs=%d drifted from the jobs=1 soak:\n got %+v\nwant %+v", jobs, got, want)
		}
	}
}

// TestNoPanicsOnHostPaths is the grep gate for the de-panic work: no
// host-reachable FTL, device, GC or recovery path may call panic — stress
// must surface as typed errors the health governor can absorb. Constructor
// guards in internal/core (pool wiring bugs, not host operations) are the
// only sanctioned panics and live outside the scanned set.
func TestNoPanicsOnHostPaths(t *testing.T) {
	pkgs := []string{"ftl", "sim", "dedup", "lxssd", "scrub", "recovery", "health", "fault", "rain"}
	for _, pkg := range pkgs {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading internal/%s: %v", pkg, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if i := bytes.Index(src, []byte("panic(")); i >= 0 {
				line := 1 + bytes.Count(src[:i], []byte("\n"))
				t.Errorf("internal/%s/%s:%d: panic( on a host-reachable path", pkg, name, line)
			}
		}
	}
}
