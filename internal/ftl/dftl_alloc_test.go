package ftl

import (
	"testing"

	"zombiessd/internal/dftl"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// dftlRig is a baseline-style page-mapped store with the map
// flash-resident behind a 3-frame CMT: 256-byte pages (64 entries per
// translation page) over 4 planes × 32 blocks × 32 pages, 11/16 of it
// logical — 44 translation pages, so nearly every map access misses. The
// logical space is written twice over, so GC runs in steady state.
type dftlRig struct {
	s       *Store
	m       *Mapper
	logical int64
	now     ssd.Time
}

func newDftlRig(t *testing.T) *dftlRig {
	t.Helper()
	geo := ssd.Geometry{
		Channels: 2, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 32, PagesPerBlock: 32, PageSize: 256, OverProvision: 0.15,
	}
	cfg := DefaultStoreConfig()
	cfg.DFTL = dftl.Config{Enable: true, CMTFrames: 3}
	s, err := NewStore(cfg, ssd.NewBus(geo, ssd.PaperLatency()))
	if err != nil {
		t.Fatal(err)
	}
	r := &dftlRig{s: s, logical: geo.TotalPages() * 11 / 16}
	if err := s.AttachCMT(r.logical); err != nil {
		t.Fatal(err)
	}
	if r.m, err = NewMapper(r.logical, geo.TotalPages()); err != nil {
		t.Fatal(err)
	}
	s.OnRelocate, s.OwnerOf, s.LookupOf = r.m.Relocate, r.m.OwnerOf, r.m.Lookup
	for lpn := int64(0); lpn < 2*r.logical; lpn++ {
		r.write(t, LPN(lpn%r.logical))
	}
	return r
}

// write overwrites lpn the way the baseline device does: program, stamp,
// rebind, invalidate the superseded page, record the binding in the CMT.
func (r *dftlRig) write(t *testing.T, lpn LPN) {
	r.now += ssd.Microsecond
	ppn, done, err := r.s.Program(r.now)
	if err != nil {
		t.Fatal(err)
	}
	r.s.StampOOB(ppn, lpn, trace.HashOfValue(uint64(lpn)), false)
	if old := r.m.Bind(lpn, ppn); old != ssd.InvalidPPN {
		if err := r.s.Invalidate(old); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.s.MapWrite(lpn, ppn, done); err != nil {
		t.Fatal(err)
	}
}

func (r *dftlRig) check(t *testing.T) {
	t.Helper()
	if err := r.s.CheckDftl(r.m.Lookup, r.logical); err != nil {
		t.Fatal(err)
	}
}

// TestDftlMissWritebackAllocFree: on a warm CMT, a MapRead miss that
// evicts a dirty frame — the write-back program (and any GC it triggers)
// plus the translation-page fill — allocates nothing. Accesses alternate
// MapWrite and MapRead over consecutive translation pages, so with three
// frames every MapRead's LRU victim is the frame a MapWrite dirtied.
func TestDftlMissWritebackAllocFree(t *testing.T) {
	r := newDftlRig(t)
	epp := int64(dftl.EntriesPerPage(r.s.Geometry().PageSize))
	tvpns := r.logical / epp
	var next int64
	access := func() {
		w, rd := LPN((next%tvpns)*epp), LPN(((next+1)%tvpns)*epp+1)
		next += 2
		ppn, _ := r.m.Lookup(w)
		r.now += ssd.Microsecond
		if _, err := r.s.MapWrite(w, ppn, r.now); err != nil {
			t.Fatal(err)
		}
		if _, err := r.s.MapRead(rd, r.now); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 4*tvpns; i++ {
		access()
	}
	const runs = 500
	before, gcBefore := r.s.DftlStats(), r.s.GC().Runs
	if allocs := testing.AllocsPerRun(runs, access); allocs != 0 {
		t.Errorf("MapRead miss with dirty write-back allocated %v objects per run, want 0", allocs)
	}
	d := r.s.DftlStats().Sub(before)
	if d.Writebacks != runs+1 || d.Fills != 2*(runs+1) {
		t.Errorf("%d runs made %d write-backs and %d fills, want %d and %d", runs+1, d.Writebacks, d.Fills, runs+1, 2*(runs+1))
	}
	if r.s.GC().Runs == gcBefore {
		t.Error("the write-backs never triggered GC; the run did not reach steady state")
	}
	r.check(t)
}

// TestDftlGCMapFlushAllocFree: on a warm store, host overwrites run until
// a data-GC cycle's map flush read-modify-writes a non-resident
// translation page; the whole stretch — host programs, GC relocations,
// the double-buffered flush and the RMW — allocates nothing.
func TestDftlGCMapFlushAllocFree(t *testing.T) {
	r := newDftlRig(t)
	var lpn int64
	cycle := func() {
		rmws := r.s.DftlStats().GCMapRMWs
		for r.s.DftlStats().GCMapRMWs == rmws {
			lpn = (lpn*7 + 13) % r.logical
			r.write(t, LPN(lpn))
		}
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	const runs = 200
	gcBefore := r.s.GC().Runs - r.s.DftlStats().TransGCRuns
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("data-GC map flush with RMW allocated %v objects per run, want 0", allocs)
	}
	if data := r.s.GC().Runs - r.s.DftlStats().TransGCRuns - gcBefore; data < runs {
		t.Errorf("%d runs ran only %d data-GC cycles", runs, data)
	}
	r.check(t)
}
