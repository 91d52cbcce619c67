package dedup

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"zombiessd/internal/ftl"
	"zombiessd/internal/ssd"
)

// ownersOf walks ppn's owner list through FirstOwner/NextOwner, failing
// the test if the list does not end within the logical space.
func ownersOf(t testing.TB, m *Mapper, ppn ssd.PPN) []ftl.LPN {
	t.Helper()
	var out []ftl.LPN
	for lpn, ok := m.FirstOwner(ppn); ok; lpn, ok = m.NextOwner(lpn) {
		if int64(len(out)) > m.LogicalPages() {
			t.Fatalf("owner list of page %d does not terminate", ppn)
		}
		out = append(out, lpn)
	}
	return out
}

// Op-stream sizes: a small logical space and value set, so owner lists
// grow long and dedup hits, revivals and relocations all occur.
const (
	opLPNs   = 48
	opValues = 12
	opPages  = 1 << 20 // physical pages: the stream stops before exhausting them
)

// runMapperOps drives a Mapper and the reference model with the same op
// stream, three bytes an op, and fails on the first observable divergence:
// every return value, then Lookup of every LPN, LiveValue of every value,
// RefCount, ValueOf and the owner order of every live page, LivePages and
// Stats. Binds only ever target unbound LPNs, as the device's write path
// does; corrupt binds onto dead pages, live values and live pages are in
// the stream and must fail on both sides.
func runMapperOps(t *testing.T, data []byte) {
	m, _ := NewMapper(opLPNs, opPages)
	ref, _ := newRefMapper(opLPNs)
	next := ssd.PPN(0)
	var garbage []ssd.PPN // pages that lost their last owner, revivable
	unbind := func(lpn ftl.LPN) {
		p, hh, g, b, err := m.Unbind(lpn)
		rp, rh, rg, rb, rerr := ref.Unbind(lpn)
		if p != rp || hh != rh || g != rg || b != rb || (err == nil) != (rerr == nil) {
			t.Fatalf("Unbind(%d) = (%d,%v,%v,%v,%v), reference (%d,%v,%v,%v,%v)",
				lpn, p, hh, g, b, err, rp, rh, rg, rb, rerr)
		}
		if g {
			garbage = append(garbage, p)
		}
	}
	sameErr := func(what string, err, rerr error) {
		if errors.Is(err, ErrDedupCorrupt) != errors.Is(rerr, ErrDedupCorrupt) || (err == nil) != (rerr == nil) {
			t.Fatalf("%s: err %v, reference %v", what, err, rerr)
		}
	}
	for i := 0; i+2 < len(data) && next < opPages-1; i += 3 {
		op, a, b := data[i]%5, data[i+1], data[i+2]
		lpn := ftl.LPN(a % opLPNs)
		val := h(uint64(b % opValues))
		switch op {
		case 0: // host write: detach, then a dedup hit or a fresh program
			unbind(lpn)
			if ppn, ok := ref.LiveValue(val); ok {
				sameErr("BindExisting", m.BindExisting(lpn, ppn), ref.BindExisting(lpn, ppn))
			} else {
				sameErr("BindNew", m.BindNew(lpn, next, val), ref.BindNew(lpn, next, val))
				next++
			}
		case 1: // trim
			unbind(lpn)
		case 2: // revival onto a garbage page; corrupt when val or the page is live
			if len(garbage) == 0 {
				continue
			}
			ppn := garbage[int(b)%len(garbage)]
			unbind(lpn)
			sameErr("BindNew revival", m.BindNew(lpn, ppn, val), ref.BindNew(lpn, ppn, val))
		case 3: // GC relocation of lpn's page, or of a page no layer knows
			src, ok := ref.Lookup(lpn)
			if !ok {
				src = next + 1000
			}
			m.Relocate(src, next)
			ref.Relocate(src, next)
			next++
		case 4: // reference onto an arbitrary page, live or dead
			unbind(lpn)
			ppn := ssd.PPN(b) % (next + 1)
			sameErr("BindExisting", m.BindExisting(lpn, ppn), ref.BindExisting(lpn, ppn))
		}
		compareMapper(t, i/3, m, ref)
	}
	checkConsistency(t, m)
}

func compareMapper(t *testing.T, op int, m *Mapper, ref *refMapper) {
	t.Helper()
	for l := ftl.LPN(0); l < opLPNs; l++ {
		p, ok := m.Lookup(l)
		rp, rok := ref.Lookup(l)
		if p != rp || ok != rok {
			t.Fatalf("op %d: Lookup(%d) = (%d,%v), reference (%d,%v)", op, l, p, ok, rp, rok)
		}
	}
	for v := uint64(0); v < opValues; v++ {
		p, ok := m.LiveValue(h(v))
		rp, rok := ref.LiveValue(h(v))
		if p != rp || ok != rok {
			t.Fatalf("op %d: LiveValue(%d) = (%d,%v), reference (%d,%v)", op, v, p, ok, rp, rok)
		}
	}
	for ppn := range ref.pages {
		if got, want := m.RefCount(ppn), ref.RefCount(ppn); got != want {
			t.Fatalf("op %d: RefCount(%d) = %d, reference %d", op, ppn, got, want)
		}
		if got, want := ownersOf(t, m, ppn), ref.Owners(ppn); !slices.Equal(got, want) {
			t.Fatalf("op %d: owners of %d = %v, reference %v", op, ppn, got, want)
		}
		hh, ok := m.ValueOf(ppn)
		rh, rok := ref.ValueOf(ppn)
		if hh != rh || ok != rok {
			t.Fatalf("op %d: ValueOf(%d) = (%v,%v), reference (%v,%v)", op, ppn, hh, ok, rh, rok)
		}
	}
	if m.LivePages() != ref.LivePages() {
		t.Fatalf("op %d: LivePages = %d, reference %d", op, m.LivePages(), ref.LivePages())
	}
	if m.Stats() != ref.Stats() {
		t.Fatalf("op %d: Stats = %+v, reference %+v", op, m.Stats(), ref.Stats())
	}
}

func randomOps(seed int64, n int) []byte {
	data := make([]byte, 3*n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestMapperMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runMapperOps(t, randomOps(seed, 5000))
		})
	}
}

func FuzzMapperOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 40))
	}
	f.Fuzz(runMapperOps)
}

// TestUnbindBindExistingAllocFree pins the dedup-hit write path at zero
// allocations once the owner links' chunk exists.
func TestUnbindBindExistingAllocFree(t *testing.T) {
	const owners = 64
	m, _ := NewMapper(owners, 8)
	if err := m.BindNew(0, 7, h(1)); err != nil {
		t.Fatal(err)
	}
	for l := ftl.LPN(1); l < owners; l++ {
		if err := m.BindExisting(l, 7); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	cycle := func() {
		lpn := ftl.LPN(i * 37 % owners)
		i++
		if _, _, _, _, err := m.Unbind(lpn); err != nil {
			t.Fatal(err)
		}
		if err := m.BindExisting(lpn, 7); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 2*owners; j++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("Unbind+BindExisting allocates %.1f objects per cycle, want 0", allocs)
	}
	checkConsistency(t, m)
}

// BenchmarkMapperUnbind detaches one owner of a page with the given owner
// count and binds it back, visiting list positions in a scattered order.
// ns/op should not depend on the owner count. With one owner every Unbind
// turns the page into garbage and the rebind is a BindNew.
func BenchmarkMapperUnbind(b *testing.B) {
	for _, owners := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("owners=%d", owners), func(b *testing.B) {
			const ppn = 7
			val := h(1)
			m, _ := NewMapper(int64(owners), 8)
			if err := m.BindNew(0, ppn, val); err != nil {
				b.Fatal(err)
			}
			for l := 1; l < owners; l++ {
				if err := m.BindExisting(ftl.LPN(l), ppn); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// An odd multiplier permutes power-of-two owner counts.
				lpn := ftl.LPN(i * 2654435761 % owners)
				_, _, garbage, _, err := m.Unbind(lpn)
				if err == nil {
					if garbage {
						err = m.BindNew(lpn, ppn, val)
					} else {
						err = m.BindExisting(lpn, ppn)
					}
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
