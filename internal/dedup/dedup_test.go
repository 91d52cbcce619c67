package dedup

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"zombiessd/internal/ftl"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

func h(id uint64) trace.Hash { return trace.HashOfValue(id) }

func TestNewMapperValidation(t *testing.T) {
	if _, err := NewMapper(0, 10); err == nil {
		t.Error("accepted zero logical pages")
	}
	m, err := NewMapper(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.LogicalPages() != 100 {
		t.Errorf("LogicalPages = %d", m.LogicalPages())
	}
	for _, physical := range []int64{0, -1, int64(ssd.InvalidPPN) + 1} {
		if _, err := NewMapper(10, physical); err == nil {
			t.Errorf("accepted %d physical pages", physical)
		}
	}
}

// TestPagesOutsideTheDrive pins that a PPN past the physical space is an
// error or a not-live page, never a panic.
func TestPagesOutsideTheDrive(t *testing.T) {
	m, _ := NewMapper(10, 256)
	if err := m.BindNew(0, 256, h(1)); !errors.Is(err, ErrDedupCorrupt) {
		t.Fatalf("BindNew past the drive: err %v, want ErrDedupCorrupt", err)
	}
	if _, ok := m.Lookup(0); ok {
		t.Fatal("failed BindNew left a mapping")
	}
	if err := m.BindExisting(0, 1<<30); !errors.Is(err, ErrDedupCorrupt) {
		t.Fatalf("BindExisting past the drive: err %v, want ErrDedupCorrupt", err)
	}
	if m.RefCount(1<<30) != 0 || m.LivePages() != 0 {
		t.Fatal("a page past the drive reads as live")
	}
	if _, ok := m.ValueOf(ssd.InvalidPPN); ok {
		t.Fatal("ValueOf(InvalidPPN) reports a live page")
	}
	if _, ok := m.FirstOwner(ssd.InvalidPPN); ok {
		t.Fatal("FirstOwner(InvalidPPN) reports an owner")
	}
	m.Relocate(1<<30, 3) // unknown source: ignored
	checkConsistency(t, m)
}

func TestBindNewAndLookup(t *testing.T) {
	m, _ := NewMapper(10, 256)
	m.BindNew(3, 70, h(1))
	if ppn, ok := m.Lookup(3); !ok || ppn != 70 {
		t.Fatalf("Lookup = (%d,%v)", ppn, ok)
	}
	if ppn, ok := m.LiveValue(h(1)); !ok || ppn != 70 {
		t.Fatalf("LiveValue = (%d,%v)", ppn, ok)
	}
	if m.RefCount(70) != 1 {
		t.Errorf("RefCount = %d, want 1", m.RefCount(70))
	}
	if v, ok := m.ValueOf(70); !ok || v != h(1) {
		t.Errorf("ValueOf = (%v,%v)", v, ok)
	}
	if m.LivePages() != 1 {
		t.Errorf("LivePages = %d, want 1", m.LivePages())
	}
}

func TestManyToOneMapping(t *testing.T) {
	m, _ := NewMapper(10, 256)
	m.BindNew(1, 50, h(9))
	m.BindExisting(2, 50)
	m.BindExisting(3, 50)
	if m.RefCount(50) != 3 {
		t.Fatalf("RefCount = %d, want 3", m.RefCount(50))
	}
	for _, lpn := range []ftl.LPN{1, 2, 3} {
		if ppn, _ := m.Lookup(lpn); ppn != 50 {
			t.Fatalf("Lookup(%d) = %d, want 50", lpn, ppn)
		}
	}
	if m.Stats().DedupHits != 2 {
		t.Errorf("DedupHits = %d, want 2", m.Stats().DedupHits)
	}
}

func TestUnbindGarbageOnlyAtLastOwner(t *testing.T) {
	m, _ := NewMapper(10, 256)
	m.BindNew(1, 50, h(9))
	m.BindExisting(2, 50)

	ppn, hash, garbage, bound, err := m.Unbind(1)
	if err != nil || !bound || garbage || ppn != 50 || hash != h(9) {
		t.Fatalf("first Unbind = (%d,%v,garbage=%v,bound=%v,err=%v)", ppn, hash, garbage, bound, err)
	}
	if _, ok := m.LiveValue(h(9)); !ok {
		t.Fatal("value dropped from live index while owners remain")
	}

	ppn, hash, garbage, bound, _ = m.Unbind(2)
	if !bound || !garbage || ppn != 50 || hash != h(9) {
		t.Fatalf("last Unbind = (%d,%v,garbage=%v,bound=%v)", ppn, hash, garbage, bound)
	}
	if _, ok := m.LiveValue(h(9)); ok {
		t.Fatal("garbage value still in live index")
	}
	if m.RefCount(50) != 0 || m.LivePages() != 0 {
		t.Fatal("page metadata survived last unbind")
	}
	if m.Stats().GarbageOut != 1 {
		t.Errorf("GarbageOut = %d, want 1", m.Stats().GarbageOut)
	}
}

func TestUnbindUnmapped(t *testing.T) {
	m, _ := NewMapper(10, 256)
	if _, _, _, bound, err := m.Unbind(5); bound || err != nil {
		t.Errorf("unbinding an unmapped LPN reported (bound=%v, err=%v)", bound, err)
	}
}

func TestRelocateRebindsAllOwners(t *testing.T) {
	m, _ := NewMapper(10, 256)
	m.BindNew(1, 50, h(9))
	m.BindExisting(2, 50)
	m.BindExisting(3, 50)
	m.Relocate(50, 80)
	for _, lpn := range []ftl.LPN{1, 2, 3} {
		if ppn, _ := m.Lookup(lpn); ppn != 80 {
			t.Fatalf("after relocate, Lookup(%d) = %d, want 80", lpn, ppn)
		}
	}
	if ppn, _ := m.LiveValue(h(9)); ppn != 80 {
		t.Fatalf("LiveValue = %d, want 80", ppn)
	}
	if m.RefCount(50) != 0 || m.RefCount(80) != 3 {
		t.Fatal("refcounts wrong after relocate")
	}
	if got := ownersOf(t, m, 80); !slices.Equal(got, []ftl.LPN{1, 2, 3}) {
		t.Fatalf("owners after relocate = %v, want [1 2 3] in bind order", got)
	}
	// Relocating an unknown page is a no-op.
	m.Relocate(1, 2)
	if m.RefCount(2) != 0 {
		t.Error("relocating unknown page created metadata")
	}
}

// TestCorruptionShapes walks every metadata-corruption shape the mapper
// detects, checking each reports ErrDedupCorrupt and leaves the mapping
// untouched.
func TestCorruptionShapes(t *testing.T) {
	cases := []struct {
		name string
		run  func(m *Mapper) error
	}{
		{"BindNew duplicate value", func(m *Mapper) error {
			if err := m.BindNew(1, 50, h(9)); err != nil {
				t.Fatal(err)
			}
			return m.BindNew(2, 60, h(9))
		}},
		{"BindNew duplicate page", func(m *Mapper) error {
			if err := m.BindNew(1, 50, h(9)); err != nil {
				t.Fatal(err)
			}
			return m.BindNew(2, 50, h(8))
		}},
		{"BindExisting dead page", func(m *Mapper) error {
			return m.BindExisting(1, 99)
		}},
		{"BindExisting bound LPN", func(m *Mapper) error {
			if err := m.BindNew(1, 50, h(9)); err != nil {
				t.Fatal(err)
			}
			return m.BindExisting(1, 50)
		}},
		{"BindNew bound LPN", func(m *Mapper) error {
			if err := m.BindNew(1, 50, h(9)); err != nil {
				t.Fatal(err)
			}
			return m.BindNew(1, 60, h(8))
		}},
		{"Unbind dangling index entry", func(m *Mapper) error {
			// Corrupt the mapper directly: an l2p entry pointing at a page
			// with no metadata, the shape a torn metadata update leaves.
			m.l2p.Set(3, 77)
			_, _, _, _, err := m.Unbind(3)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, _ := NewMapper(10, 256)
			err := c.run(m)
			if !errors.Is(err, ErrDedupCorrupt) {
				t.Fatalf("err = %v, want ErrDedupCorrupt", err)
			}
			// The failing operation must not move the unbind counter (the
			// setup binds legitimately move the bind counters).
			if m.Stats().Unbinds != 0 {
				t.Errorf("corrupt operation recorded an unbind: %+v", m.Stats())
			}
		})
	}
}

// TestRandomizedConsistency churns the mapper with random bind/unbind/
// relocate traffic and checks global invariants: l2p, per-page owner lists
// and the content index always agree.
func TestRandomizedConsistency(t *testing.T) {
	const lpns = 64
	m, _ := NewMapper(lpns, 1<<16)
	rng := rand.New(rand.NewSource(12))
	nextPPN := ssd.PPN(0)
	for i := 0; i < 20000; i++ {
		lpn := ftl.LPN(rng.Intn(lpns))
		val := h(uint64(rng.Intn(20)))
		// Write path: unbind old, bind to live copy or a new page.
		m.Unbind(lpn)
		if ppn, ok := m.LiveValue(val); ok {
			m.BindExisting(lpn, ppn)
		} else {
			m.BindNew(lpn, nextPPN, val)
			nextPPN++
		}
		if rng.Intn(10) == 0 {
			// Relocate the live page behind a random LPN, as GC would.
			// (Map iteration order is randomized, so the page is picked
			// through the seeded rng to keep the run reproducible.)
			if src, ok := m.Lookup(ftl.LPN(rng.Intn(lpns))); ok {
				m.Relocate(src, nextPPN)
				nextPPN++
			}
		}
		if i%500 == 0 {
			checkConsistency(t, m)
		}
	}
	checkConsistency(t, m)
}

// checkConsistency cross-checks the l2p table, the per-page owner lists
// and the content index, and walks every owner list both ways.
func checkConsistency(t *testing.T, m *Mapper) {
	t.Helper()
	owners, live := 0, 0
	m.pages.ForEach(func(i int64, meta pageMeta) {
		if meta.n == 0 {
			return
		}
		ppn := ssd.PPN(i)
		live++
		if m.byHash[meta.hash] != ppn {
			t.Fatalf("content index for %v does not point at %d", meta.hash, ppn)
		}
		if prev := m.links.Get(int64(meta.head)).prev; prev != ftl.InvalidLPN {
			t.Fatalf("head %d of page %d has a predecessor %d", meta.head, ppn, prev)
		}
		walked, last := int32(0), ftl.InvalidLPN
		for lpn := meta.head; lpn != ftl.InvalidLPN; lpn = m.links.Get(int64(lpn)).next {
			if walked == meta.n {
				t.Fatalf("owner list of page %d is longer than its count %d", ppn, meta.n)
			}
			if prev := m.links.Get(int64(lpn)).prev; prev != last {
				t.Fatalf("owner %d of page %d links back to %d, want %d", lpn, ppn, prev, last)
			}
			if m.l2p.Get(int64(lpn)) != ppn {
				t.Fatalf("owner %d of page %d maps elsewhere (%d)", lpn, ppn, m.l2p.Get(int64(lpn)))
			}
			walked++
			last = lpn
		}
		if walked != meta.n || last != meta.tail {
			t.Fatalf("page %d: walked %d owners ending at %d, want %d ending at %d",
				ppn, walked, last, meta.n, meta.tail)
		}
		owners += int(walked)
	})
	if len(m.byHash) != live || m.LivePages() != live {
		t.Fatalf("content index size %d, live counter %d, live pages %d", len(m.byHash), m.LivePages(), live)
	}
	mapped := 0
	m.l2p.ForEach(func(lpn int64, ppn ssd.PPN) {
		if ppn != ssd.InvalidPPN {
			mapped++
		} else if l := m.links.Get(lpn); l != noLink {
			t.Fatalf("unbound LPN %d keeps links %+v", lpn, l)
		}
	})
	if mapped != owners {
		t.Fatalf("%d mapped LPNs but %d owners recorded", mapped, owners)
	}
}

func TestStatsString(t *testing.T) {
	if (Stats{}).String() == "" {
		t.Error("empty stats string")
	}
}
