package dftl

import (
	"math/rand"
	"slices"
	"testing"

	"zombiessd/internal/ssd"
)

// Geometry of the CMT the op driver exercises: 64-byte translation pages
// (16 entries), 8 TVPNs, and a 3-frame cache, so evictions, reloads and
// buffer reuse happen every few ops.
const (
	opsPageSize = 64
	opsTVPNs    = 8
	opsFrames   = 3
)

// cmtRef is the naive reference the op driver checks the CMT against:
// maps and a slice, every buffer its own.
type cmtRef struct {
	epp      int
	resident map[uint32][]ssd.PPN // current entries of each resident frame
	dirty    map[uint32]bool
	lru      []uint32             // resident TVPNs, most recently used first
	flash    map[uint32][]ssd.PPN // durable entries of each programmed TVPN
	loc      map[uint32]ssd.PPN
}

func newCMTRef(epp int) *cmtRef {
	return &cmtRef{
		epp:      epp,
		resident: map[uint32][]ssd.PPN{},
		dirty:    map[uint32]bool{},
		flash:    map[uint32][]ssd.PPN{},
		loc:      map[uint32]ssd.PPN{},
	}
}

func (r *cmtRef) touch(tvpn uint32) {
	i := slices.Index(r.lru, tvpn)
	r.lru = slices.Insert(slices.Delete(r.lru, i, i+1), 0, tvpn)
}

func (r *cmtRef) entry(lpn uint32, durable bool) (ssd.PPN, bool) {
	tvpn := lpn / uint32(r.epp)
	e, ok := r.resident[tvpn]
	if !ok || durable {
		if e, ok = r.flash[tvpn]; !ok {
			return ssd.InvalidPPN, false
		}
	}
	p := e[int(lpn)%r.epp]
	return p, p != ssd.InvalidPPN
}

func (r *cmtRef) dropFrames() {
	clear(r.resident)
	clear(r.dirty)
	r.lru = r.lru[:0]
}

// cmtOps drives a CMT and the naive reference through the op sequence
// encoded in data (three bytes per op) — Touch, Install, EvictVictim,
// Update, Committed (write-back, batch fold and read-modify-write forms),
// Relocated, DropFrames and ResetAll — in the orders ftl.Store issues
// them. After every op, EntryOf and DurableEntryOf must agree with the
// reference for every LPN, and a victim held from EvictVictim must still
// hold the entries it was evicted with: its buffer is recycled by the next
// Install and by nothing before it.
func cmtOps(t testing.TB, data []byte) {
	c, err := NewCMT(Config{Enable: true, CMTFrames: opsFrames}, opsTVPNs*int64(EntriesPerPage(opsPageSize))-3, opsPageSize)
	if err != nil {
		t.Fatal(err)
	}
	epp := c.epp
	logical := uint32(len(c.gtd) * epp)
	ref := newCMTRef(epp)
	nextPPN := ssd.PPN(1)
	fresh := func() ssd.PPN { p := nextPPN; nextPPN++; return p }
	scratch := make([]ssd.PPN, epp) // the store's RMW buffer

	// The victim of the last EvictVictim, until it is committed or the
	// next Install recycles its buffer.
	var (
		held      []ssd.PPN
		heldSnap  []ssd.PPN
		heldTVPN  uint32
		heldDirty bool
	)
	evict := func() bool {
		tvpn, dirty, entries, ok := c.EvictVictim()
		if ok != (len(ref.lru) > 0) {
			t.Fatalf("EvictVictim ok = %v with %d reference frames", ok, len(ref.lru))
		}
		if !ok {
			return false
		}
		want := ref.lru[len(ref.lru)-1]
		if tvpn != want || dirty != ref.dirty[want] || !slices.Equal(entries, ref.resident[want]) {
			t.Fatalf("EvictVictim = tvpn %d dirty %v, reference LRU victim tvpn %d dirty %v (entries equal: %v)",
				tvpn, dirty, want, ref.dirty[want], slices.Equal(entries, ref.resident[want]))
		}
		ref.lru = ref.lru[:len(ref.lru)-1]
		delete(ref.resident, tvpn)
		delete(ref.dirty, tvpn)
		held, heldSnap, heldTVPN, heldDirty = entries, slices.Clone(entries), tvpn, dirty
		return true
	}
	commit := func(tvpn uint32, entries []ssd.PPN) {
		dst := fresh()
		old, wantOld := c.Committed(tvpn, entries, dst), ssd.InvalidPPN
		if l, ok := ref.loc[tvpn]; ok {
			wantOld = l
		}
		if old != wantOld {
			t.Fatalf("Committed(%d) returned old %d, reference %d", tvpn, old, wantOld)
		}
		ref.flash[tvpn] = slices.Clone(entries)
		ref.loc[tvpn] = dst
		if _, ok := ref.resident[tvpn]; ok {
			ref.dirty[tvpn] = false
		}
	}
	install := func(tvpn uint32) {
		_, onFlash := ref.loc[tvpn]
		if loaded := c.Install(tvpn); loaded != onFlash {
			t.Fatalf("Install(%d) loaded = %v, reference flash copy %v", tvpn, loaded, onFlash)
		}
		e := make([]ssd.PPN, epp)
		Clear(e)
		if onFlash {
			copy(e, ref.flash[tvpn])
		}
		ref.resident[tvpn] = e
		ref.dirty[tvpn] = false
		ref.lru = slices.Insert(ref.lru, 0, tvpn)
		held = nil
	}

	for len(data) >= 3 {
		op, a, b := data[0]%10, data[1], data[2]
		data = data[3:]
		tvpn := uint32(a) % uint32(len(c.gtd))
		switch op {
		case 0: // lookup: a hit refreshes recency
			_, want := ref.resident[tvpn]
			if hit := c.Touch(tvpn); hit != want {
				t.Fatalf("Touch(%d) = %v, reference resident %v", tvpn, hit, want)
			}
			if want {
				ref.touch(tvpn)
			}
		case 1: // the demand path: evict (writing back) if full, then fill
			if c.Resident(tvpn) {
				continue
			}
			if c.Full() && evict() && heldDirty {
				commit(heldTVPN, held)
			}
			install(tvpn)
		case 2: // evict and hold the victim across the next ops
			evict()
		case 3: // write back the held dirty victim
			if held != nil && heldDirty {
				commit(heldTVPN, held)
				held = nil
			}
		case 4, 5: // host mapping update
			lpn := (tvpn*uint32(epp) + uint32(b)%uint32(epp)) % logical
			ppn := fresh()
			err := c.Update(lpn, ppn)
			if e, ok := ref.resident[c.TVPNOf(lpn)]; ok {
				if err != nil {
					t.Fatalf("Update(%d) of a resident frame: %v", lpn, err)
				}
				e[int(lpn)%epp] = ppn
				ref.dirty[c.TVPNOf(lpn)] = true
			} else if err == nil {
				t.Fatalf("Update(%d) with no resident frame succeeded", lpn)
			}
		case 6: // translation GC: batch fold of a resident frame, else relocation
			loc, ok := ref.loc[tvpn]
			if !ok {
				if err := c.Relocated(tvpn, 1, fresh()); err == nil {
					t.Fatalf("Relocated(%d) of a never-programmed page succeeded", tvpn)
				}
				continue
			}
			if ref.dirty[tvpn] && b%2 == 0 {
				commit(tvpn, c.FrameEntries(tvpn))
				continue
			}
			dst := fresh()
			if err := c.Relocated(tvpn, loc, dst); err != nil {
				t.Fatal(err)
			}
			ref.loc[tvpn] = dst
		case 7: // data-GC read-modify-write of a non-resident page
			if c.Resident(tvpn) {
				continue
			}
			if f := c.FlashEntries(tvpn); f != nil {
				copy(scratch, f)
			} else {
				Clear(scratch)
			}
			scratch[int(b)%epp] = fresh()
			commit(tvpn, scratch)
		case 8: // power loss
			c.DropFrames()
			ref.dropFrames()
		case 9: // recovery: reset, then re-land a checkpoint of one page
			if b%4 != 0 {
				continue
			}
			c.ResetAll()
			ref.dropFrames()
			clear(ref.flash)
			clear(ref.loc)
			Clear(scratch)
			scratch[int(b)%epp] = fresh()
			commit(tvpn, scratch)
		}
		checkCMT(t, c, ref, logical)
		if held != nil && !slices.Equal(held, heldSnap) {
			t.Fatalf("evicted tvpn %d entries changed before the next Install", heldTVPN)
		}
	}
}

// checkCMT compares every observable of c with the reference.
func checkCMT(t testing.TB, c *CMT, ref *cmtRef, logical uint32) {
	if c.ResidentFrames() != len(ref.resident) {
		t.Fatalf("ResidentFrames = %d, reference %d", c.ResidentFrames(), len(ref.resident))
	}
	if len(c.frames) > c.cfg.CMTFrames {
		t.Fatalf("frame slab grew to %d, capacity %d", len(c.frames), c.cfg.CMTFrames)
	}
	for tvpn := uint32(0); tvpn < uint32(len(c.gtd)); tvpn++ {
		_, res := ref.resident[tvpn]
		if c.Resident(tvpn) != res || c.ResidentDirty(tvpn) != ref.dirty[tvpn] {
			t.Fatalf("tvpn %d resident/dirty = %v/%v, reference %v/%v",
				tvpn, c.Resident(tvpn), c.ResidentDirty(tvpn), res, ref.dirty[tvpn])
		}
		want, ok := ref.loc[tvpn]
		if !ok {
			want = ssd.InvalidPPN
		}
		if c.Loc(tvpn) != want {
			t.Fatalf("Loc(%d) = %d, reference %d", tvpn, c.Loc(tvpn), want)
		}
	}
	for lpn := uint32(0); lpn < logical; lpn++ {
		for _, durable := range []bool{false, true} {
			got, gok := c.EntryOf(lpn)
			if durable {
				got, gok = c.DurableEntryOf(lpn)
			}
			want, wok := ref.entry(lpn, durable)
			if got != want || gok != wok {
				t.Fatalf("lpn %d (durable %v) resolves to %d/%v, reference %d/%v", lpn, durable, got, gok, want, wok)
			}
		}
	}
}

// TestCMTOpsMatchReference runs the op driver over seeded random op
// sequences.
func TestCMTOpsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		data := make([]byte, 3*2000)
		rand.New(rand.NewSource(seed)).Read(data)
		cmtOps(t, data)
	}
}

// FuzzCMTOps explores op sequences beyond the seeded ones.
func FuzzCMTOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 3*40)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { cmtOps(t, data) })
}
