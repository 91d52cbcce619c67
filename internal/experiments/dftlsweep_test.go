package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

// TestDftlsweepAttribution is the acceptance gate for the flash-resident
// mapping work: on every architecture the small-CMT arm must show real
// mapping traffic (misses, dirty write-backs, translation programs) and a
// translation-GC stream that actually ran, attributed separately from
// data GC; the large-CMT arm must hit more often and program fewer
// translation pages; and the in-RAM control must report no DFTL traffic
// at all.
func TestDftlsweepAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("dftlsweep replays fifteen full device lives")
	}
	r, err := RunDftlsweep(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Arms) != 15 {
		t.Fatalf("swept %d arms, want 5 architectures × 3 CMT sizes", len(r.Arms))
	}
	// Arms arrive arch-major in off/small/large order.
	byArch := map[string][]DftlArm{}
	for _, a := range r.Arms {
		byArch[a.Arch] = append(byArch[a.Arch], a)
	}
	if len(byArch) != 5 {
		t.Fatalf("swept %d architectures, want 5", len(byArch))
	}
	for arch, arms := range byArch {
		if len(arms) != 3 {
			t.Fatalf("%s: %d arms, want off/small/large", arch, len(arms))
		}
		off, small, large := arms[0], arms[1], arms[2]
		if off.Frames != 0 || small.Frames == 0 || large.Frames <= small.Frames {
			t.Fatalf("%s: CMT ladder %d/%d/%d is not off < small < large", arch, off.Frames, small.Frames, large.Frames)
		}
		if off.Dftl.TransPrograms != 0 || off.Dftl.Misses != 0 || off.Dftl.TransGCRuns != 0 {
			t.Errorf("%s control: in-RAM arm reports DFTL traffic: %+v", arch, off)
		}
		if small.Dftl.Misses == 0 || small.Dftl.Writebacks == 0 || small.Dftl.TransPrograms == 0 {
			t.Errorf("%s small-CMT: no mapping flash traffic: %+v", arch, small)
		}
		if small.Dftl.TransGCRuns == 0 || small.Dftl.TransErased == 0 {
			t.Errorf("%s small-CMT: translation stream never needed GC: %+v", arch, small)
		}
		if small.DataGCRuns() < 0 || small.DataErased() < 0 {
			t.Errorf("%s small-CMT: negative data-GC attribution: %+v", arch, small)
		}
		if large.Dftl.HitRate() <= small.Dftl.HitRate() {
			t.Errorf("%s: large-CMT hit rate %.3f not above small-CMT's %.3f", arch, large.Dftl.HitRate(), small.Dftl.HitRate())
		}
		if large.Dftl.TransPrograms >= small.Dftl.TransPrograms {
			t.Errorf("%s: large CMT programmed %d translation pages, small CMT %d — a bigger cache must write less",
				arch, large.Dftl.TransPrograms, small.Dftl.TransPrograms)
		}
		if small.WriteAmplification() < off.WriteAmplification() {
			t.Errorf("%s: small-CMT WA %.2f below the in-RAM control's %.2f — the map tax vanished", arch, small.WriteAmplification(), off.WriteAmplification())
		}
	}
	// The revived counter is the DVP hit value; it must survive the map tax
	// on the architectures that have a pool.
	for _, arch := range []string{"dvp", "dvp+dedup", "lx-ssd", "buffered"} {
		if byArch[arch][1].Revived == 0 {
			t.Errorf("%s small-CMT: no revivals — the dead-value pool died under DFTL", arch)
		}
	}
	t.Logf("\n%s", r.Table())
}

// TestNoDftlBitIdentity pins two invariants of the flash-resident mapping
// work. First, with Options.Dftl zero no CMT is attached anywhere and the
// evaluation matrix counters stay byte-identical to the pre-DFTL goldens.
// Second, the dftlsweep's output is a pure function of its options:
// identical for every worker count.
func TestNoDftlBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("bit-identity check replays the evaluation matrix")
	}
	checkMatrixGoldens(t)

	var want *DftlsweepResult
	for _, jobs := range []int{1, 8} {
		o := smallOpts()
		o.Jobs = jobs
		got, err := RunDftlsweep(o)
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

// TestPaperGeometryCell is the full-drive gate: one evaluation-matrix cell
// on the paper's 1 TB Table I geometry, with the page map flash-resident,
// must complete inside a CI runner's memory. Per-page host state is
// chunked sparse arrays and the store's page metadata is flat, so RAM
// scales with the touched footprint plus O(blocks), not the 268M-page
// drive.
func TestPaperGeometryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1 TB drive cell in -short mode")
	}
	o := smallOpts()
	o.PaperGeometry = true
	o.Dftl.Enable = true
	// Two frames on a trace spanning several translation pages: the CMT
	// must thrash, so the cell proves translation reads/programs work on
	// the full-size drive rather than idling on an all-resident map.
	o.Dftl.CMTFrames = 2
	o.Dftl.BatchEvict = true
	m, err := RunMatrix(o, []string{"mail"}, []System{SysDVP200K})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := m.Result("mail", SysDVP200K)
	if !ok {
		t.Fatal("no result for the paper-geometry cell")
	}
	if res.Metrics.HostWrites == 0 || res.Metrics.FlashPrograms == 0 {
		t.Errorf("paper-geometry cell did no work: %+v", res.Metrics)
	}
	if res.Metrics.Dftl.TransPrograms == 0 {
		t.Error("paper-geometry cell ran without flash-resident mapping traffic")
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The 1 TB drive has 268M pages; a dense 4-byte-per-page host table
	// alone would be >1 GiB. The ceiling catches any regression back to
	// footprint-independent dense allocation while leaving slack for the
	// store's per-block accounting.
	const ceiling = 1 << 30
	if ms.HeapAlloc > ceiling {
		t.Errorf("heap after full-drive cell = %d MiB, want < %d MiB",
			ms.HeapAlloc>>20, ceiling>>20)
	}
}
