package experiments

import "testing"

// matrixGolden pins one cell of the zero-config evaluation matrix; shared
// by the crash and integrity identity tests so the disarmed machinery of
// both subsystems is held to the same exact counters.
type matrixGolden struct {
	hostWrites, programs, reads, erases int64
	revived, dedupHits, relocated       int64
	poolHits, poolInserts, makespan     int64
}

var matrixGoldens = map[System]matrixGolden{
	SysBaseline: {23005, 33450, 17440, 1761, 0, 0, 10445, 0, 0, 9018204},
	SysDVP200K:  {23005, 7630, 7350, 132, 15730, 0, 355, 15730, 23005, 9011444},
	SysDVPDedup: {23005, 1842, 6995, 0, 299, 20864, 0, 299, 6638, 9011444},
	SysLX:       {23005, 7748, 7369, 140, 15631, 0, 374, 15631, 23005, 9011444},
}

// checkMatrixGoldens runs the zero-config matrix and compares every cell
// against the pinned counters.
func checkMatrixGoldens(t *testing.T) *Matrix {
	t.Helper()
	return checkMatrixGoldensOpts(t, smallOpts())
}

// checkMatrixGoldensOpts is checkMatrixGoldens under explicit options, so
// observe-only features (telemetry, parallelism) can assert they leave the
// pinned counters untouched.
func checkMatrixGoldensOpts(t *testing.T, o Options) *Matrix {
	t.Helper()
	systems := []System{SysBaseline, SysDVP200K, SysDVPDedup, SysLX}
	m, err := RunMatrix(o, []string{"mail"}, systems)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range systems {
		res, ok := m.Result("mail", sys)
		if !ok {
			t.Fatalf("no result for %s", sys)
		}
		mm := res.Metrics
		got := matrixGolden{
			mm.HostWrites, mm.FlashPrograms, mm.FlashReads, mm.FlashErases,
			mm.Revived, mm.DedupHits, mm.GC.Relocated,
			mm.Pool.Hits, mm.Pool.Inserts, int64(res.Makespan),
		}
		if got != matrixGoldens[sys] {
			t.Errorf("%s drifted from the pinned counters:\n got %+v\nwant %+v", sys, got, matrixGoldens[sys])
		}
	}
	return m
}

// TestNoCrashBitIdentity pins the exact per-cell counters of the
// evaluation matrix with the crash-recovery machinery compiled in but
// disarmed (CrashAtOp = 0). The OOB stamps, the mapping journal and the
// recovery hooks must be pure bookkeeping: any drift in these counters
// means the crash subsystem changed simulation behaviour it must only
// observe.
func TestNoCrashBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix cells in -short mode")
	}
	checkMatrixGoldens(t)
}

// TestCrashsweepSmoke drives a small sweep through every architecture:
// each injected power loss must fire, recover via the OOB scan and pass
// the integrity oracle, and the re-seeded dead-value pool must retain a
// non-zero share of its pre-crash hit rate.
func TestCrashsweepSmoke(t *testing.T) {
	o := smallOpts()
	o.CrashPoints = 2
	r, err := RunCrashsweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Arms) != 6 {
		t.Fatalf("got %d arms, want 6 (5 architectures + dvp cold-pool control)", len(r.Arms))
	}
	var warm, cold *CrashArm
	for i := range r.Arms {
		a := &r.Arms[i]
		if a.Crashed != a.Points {
			t.Errorf("%s: power loss fired at %d of %d points", a.Arch, a.Crashed, a.Points)
		}
		if a.Violations != 0 {
			t.Errorf("%s: %d integrity violations", a.Arch, a.Violations)
		}
		if a.MeanScanPages <= 0 {
			t.Errorf("%s: recovery scanned no pages", a.Arch)
		}
		if a.Arch == "dvp" {
			if a.ColdPool {
				cold = a
			} else {
				warm = a
			}
		}
	}
	if warm == nil || cold == nil {
		t.Fatal("dvp warm/cold arms missing")
	}
	if warm.MeanPostHitRate <= 0 {
		t.Error("re-seeded pool never hit after recovery")
	}
	if warm.Retention() <= 0 {
		t.Error("warm recovery retained none of the pre-crash hit rate")
	}
	t.Log("\n" + r.Table().String())
}

// TestCrashsweepDeterministic pins that the sweep is a pure function of
// its options: same workload, seed and crash points, same aggregates,
// whether the pilots and points run on one worker or four.
func TestCrashsweepDeterministic(t *testing.T) {
	o := smallOpts()
	o.CrashPoints = 1
	o.Jobs = 1
	a, err := RunCrashsweep(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Jobs = 4
	b, err := RunCrashsweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Arms) != len(b.Arms) {
		t.Fatalf("arm counts differ: %d vs %d", len(a.Arms), len(b.Arms))
	}
	for i := range a.Arms {
		if a.Arms[i] != b.Arms[i] {
			t.Errorf("arm %d differs between 1 and 4 workers:\n %+v\n %+v", i, a.Arms[i], b.Arms[i])
		}
	}
}
