package lxssd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// Op-stream sizes: few values and addresses, so a value has several
// buffered copies and an address several garbage pages.
const (
	opValues = 12
	opLBAs   = 16
	opPages  = 1 << 20 // physical pages: the stream stops before exhausting them
)

// runPoolOps drives a Pool and the reference model with the same op
// stream and fails on the first divergence. The first two bytes pick the
// capacity and admission threshold; then every op takes three bytes.
// After each op it compares Lookup's result, Len, Stats, the LRU order and
// the order of every value's and address's records. As on the device, a
// PPN is buffered at most once at a time but may return after it left.
func runPoolOps(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	cfg := Config{Capacity: 1 + int(data[0]%24), MinPopularity: uint16(data[1] % 3)}
	p, err := New(cfg, opPages, opLBAs)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := newRefPool(cfg)
	next := ssd.PPN(0)
	for i := 2; i+2 < len(data) && next < opPages-1; i += 3 {
		op, a, b := data[i]%5, data[i+1], data[i+2]
		v, lba := h(uint64(a%opValues)), uint64(b%opLBAs)
		switch op {
		case 0:
			p.RecordAccess(v, lba)
			ref.RecordAccess(v, lba)
		case 1:
			p.Insert(v, next, lba)
			ref.Insert(v, next, lba)
			next++
		case 2: // a page that was revived or dropped turns garbage again
			if next == 0 {
				continue
			}
			ppn := ssd.PPN(b) % next
			if _, buffered := ref.byPPN[ppn]; buffered {
				continue
			}
			p.Insert(v, ppn, lba)
			ref.Insert(v, ppn, lba)
		case 3:
			ppn, ok := p.Lookup(v)
			rppn, rok := ref.Lookup(v)
			if ppn != rppn || ok != rok {
				t.Fatalf("op %d: Lookup = (%d,%v), reference (%d,%v)", i, ppn, ok, rppn, rok)
			}
		case 4:
			ppn := ssd.PPN(b) % (next + 1)
			p.Drop(ppn)
			ref.Drop(ppn)
		}
		comparePool(t, i, p, ref)
	}
	checkIndexes(t, p)
}

func comparePool(t *testing.T, op int, p *Pool, ref *refPool) {
	t.Helper()
	if p.Len() != ref.Len() || p.Stats() != ref.Stats() {
		t.Fatalf("op %d: Len %d Stats %+v, reference Len %d Stats %+v",
			op, p.Len(), p.Stats(), ref.Len(), ref.Stats())
	}
	var want []ssd.PPN
	for r := ref.list.head; r != nil; r = r.next {
		want = append(want, r.ppn)
	}
	if got := chainPPNs(p, p.lru, lruList); !slices.Equal(got, want) {
		t.Fatalf("op %d: LRU %v, reference %v", op, got, want)
	}
	for v := uint64(0); v < opValues; v++ {
		want = want[:0]
		for _, r := range ref.byHash[h(v)] {
			want = append(want, r.ppn)
		}
		if got := indexPPNs(p, p.byHash, h(v), hashList); !slices.Equal(got, want) {
			t.Fatalf("op %d: copies of value %d %v, reference %v", op, v, got, want)
		}
	}
	for lba := uint64(0); lba < opLBAs; lba++ {
		want = want[:0]
		for _, r := range ref.byLBA[lba] {
			want = append(want, r.ppn)
		}
		if got := chainPPNs(p, p.byLBA.Get(int64(lba)), lbaList); !slices.Equal(got, want) {
			t.Fatalf("op %d: garbage pages of LBA %d %v, reference %v", op, lba, got, want)
		}
	}
}

// chainPPNs lists the pages on c, a chain of list k.
func chainPPNs(p *Pool, c chain, k int) []ssd.PPN {
	var out []ssd.PPN
	for _, i := range chainSlots(p, c, k) {
		out = append(out, p.slab[i].ppn)
	}
	return out
}

// indexPPNs lists the pages on key's chain in idx, none when key is absent.
func indexPPNs[K comparable](p *Pool, idx map[K]chain, key K, k int) []ssd.PPN {
	c, ok := idx[key]
	if !ok {
		return nil
	}
	return chainPPNs(p, c, k)
}

func randomOps(seed int64, n int) []byte {
	data := make([]byte, 2+3*n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestLXPoolMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runPoolOps(t, randomOps(seed, 5000))
		})
	}
}

func FuzzLXPoolOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 40))
	}
	f.Fuzz(runPoolOps)
}

// TestInsertLookupDropAllocFree pins a warmed pool's churn at zero
// allocations: slots, chains and index entries are all recycled.
func TestInsertLookupDropAllocFree(t *testing.T) {
	p := newPool(16)
	for v := uint64(0); v < 4; v++ {
		p.RecordAccess(h(v), v)
		p.RecordAccess(h(v), v)
	}
	i := 0
	cycle := func() {
		v := uint64(i % 4)
		i++
		p.RecordAccess(h(v), v)
		p.Insert(h(v), ssd.PPN(2*v), v)
		p.Insert(h(v+1), ssd.PPN(2*v+1), v)
		if _, ok := p.Lookup(h(v)); !ok {
			t.Fatal("buffered copy not found")
		}
		p.Drop(ssd.PPN(2*v + 1))
	}
	for j := 0; j < 64; j++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("Insert+Lookup+Drop allocates %.1f objects per cycle, want 0", allocs)
	}
	checkIndexes(t, p)
}

// BenchmarkLXPoolChurn replays a full pool's steady state: each iteration
// touches an address, buffers a garbage page (evicting once full), revives
// a value and drops an erased page.
func BenchmarkLXPoolChurn(b *testing.B) {
	const capacity, values, lbas = 4096, 3000, 8192
	const pages = 1 << 28 // PPNs below wrap only after 2^28 iterations
	p, _ := New(Config{Capacity: capacity, MinPopularity: 0}, pages, lbas)
	rng := rand.New(rand.NewSource(1))
	type op struct {
		access, revive trace.Hash
		lba            uint64
	}
	ops := make([]op, 1<<16)
	for i := range ops {
		ops[i] = op{h(uint64(rng.Intn(values))), h(uint64(rng.Intn(values))), uint64(rng.Intn(lbas))}
	}
	for i := 0; i < 4*capacity; i++ {
		o := ops[i%len(ops)]
		p.Insert(o.access, ssd.PPN(i), o.lba)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := &ops[i%len(ops)]
		p.RecordAccess(o.access, o.lba)
		p.Insert(o.access, ssd.PPN((4*capacity+i)%pages), o.lba)
		p.Lookup(o.revive)
		p.Drop(ssd.PPN((4*capacity + i - capacity/2) % pages))
	}
}
