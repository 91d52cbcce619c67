package experiments

import (
	"testing"

	"zombiessd/internal/fault"
	"zombiessd/internal/scrub"
	"zombiessd/internal/ssd"
)

// TestNoIntegrityBitIdentity pins that the integrity layer — per-page
// timestamps, read-disturb counters, the RBER estimator, the revival gate
// and the scrubber hook — is pure bookkeeping while disarmed: the
// zero-config matrix reproduces the exact counters pinned since before the
// layer existed, and no fault or patrol statistic moves.
func TestNoIntegrityBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix cells in -short mode")
	}
	m := checkMatrixGoldens(t)
	for _, sys := range []System{SysBaseline, SysDVP200K, SysDVPDedup, SysLX} {
		res, ok := m.Result("mail", sys)
		if !ok {
			t.Fatalf("no result for %s", sys)
		}
		if res.Metrics.Faults != (fault.Stats{}) {
			t.Errorf("%s: disarmed run accumulated fault stats: %+v", sys, res.Metrics.Faults)
		}
		if res.Metrics.Scrub != (scrub.Stats{}) {
			t.Errorf("%s: disarmed run accumulated patrol stats: %+v", sys, res.Metrics.Scrub)
		}
	}
}

// scrubArmPairs indexes a sweep's arms as (off, on) per architecture.
func scrubArmPairs(t *testing.T, r *ScrubsweepResult) map[string][2]*ScrubArm {
	t.Helper()
	pairs := make(map[string][2]*ScrubArm)
	for i := range r.Arms {
		a := &r.Arms[i]
		p := pairs[a.Arch]
		if a.Patrol {
			p[1] = a
		} else {
			p[0] = a
		}
		pairs[a.Arch] = p
	}
	for arch, p := range pairs {
		if p[0] == nil || p[1] == nil {
			t.Fatalf("%s: missing scrub on/off arm", arch)
		}
	}
	return pairs
}

// TestScrubsweepSmoke drives the sweep at its floor size and checks the
// claims the experiment exists to demonstrate: without the patrol,
// acknowledged pages decay into uncorrectable reads and end-of-trace data
// loss (and the revival systems decline decayed zombies); with the patrol
// at the default cadence, host-visible data loss drops to zero and the
// cost shows up only as scrub reads, refresh writes and latency.
func TestScrubsweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full replays in -short mode")
	}
	r, err := RunScrubsweep(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Arms) != 10 {
		t.Fatalf("got %d arms, want 10 (5 architectures × scrub on/off)", len(r.Arms))
	}
	pairs := scrubArmPairs(t, r)
	var offLoss int
	var offUECC int64
	for arch, p := range pairs {
		off, on := p[0], p[1]
		offUECC += off.Faults.UncorrectableReads
		offLoss += off.DataLoss
		if off.Scrub.ScrubReads != 0 || off.Scrub.Refreshed != 0 {
			t.Errorf("%s: patrol activity in the scrub-off control: %+v", arch, *off)
		}
		if on.DataLoss != 0 {
			t.Errorf("%s: %d pages lost with the patrol on; the default cadence must reach zero", arch, on.DataLoss)
		}
		if on.DataLoss > off.DataLoss {
			t.Errorf("%s: patrol increased data loss: %d > %d", arch, on.DataLoss, off.DataLoss)
		}
		// Refreshed can exceed RefreshWrites: making room for a refresh may
		// let GC relocate the page first, which the scrubber still counts.
		if on.Scrub.ScrubReads == 0 || on.Faults.RefreshWrites == 0 || on.Faults.RefreshWrites > on.Scrub.Refreshed {
			t.Errorf("%s: patrol accounting inconsistent: %+v", arch, *on)
		}
		// The patrol works in idle windows: it may lengthen the read tail
		// through refresh-triggered GC, but only boundedly — a broken
		// scheduler that queued patrol work ahead of host requests would
		// push the p99 out by the makespan, not milliseconds.
		if band := off.ReadP99 + 50*ssd.Millisecond; on.ReadP99 > band {
			t.Errorf("%s: scrub-on read p99 %v outside the regression band %v (off %v)",
				arch, on.ReadP99, band, off.ReadP99)
		}
	}
	if offLoss == 0 || offUECC == 0 {
		t.Errorf("scrub-off arms lost %d pages over %d uncorrectable reads; the model decays too slowly to measure", offLoss, offUECC)
	}
	// The revival integrity gate: with scrub off, the dvp arm must both
	// hit uncorrectable reads and decline decayed zombies.
	dvp := pairs["dvp"][0]
	if dvp.Faults.UncorrectableReads == 0 {
		t.Error("dvp without patrol saw no uncorrectable reads")
	}
	if dvp.Faults.RevivalsDeclined == 0 {
		t.Error("dvp without patrol declined no revivals; the RBER gate never fired")
	}
	if dvp.Revived == 0 {
		t.Error("dvp revived nothing; the gate should vet, not veto")
	}
	t.Log("\n" + r.Table().String())
}

// TestScrubsweepDeterministic pins that the sweep is a pure function of
// its options: byte-identical counters for one worker and for four.
func TestScrubsweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty full replays in -short mode")
	}
	serial, parallel := smallOpts(), smallOpts()
	serial.Jobs, parallel.Jobs = 1, 4
	a, err := RunScrubsweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScrubsweep(parallel)
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
