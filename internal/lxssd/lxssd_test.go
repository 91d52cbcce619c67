package lxssd

import (
	"math"
	"slices"
	"testing"

	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

func h(id uint64) trace.Hash { return trace.HashOfValue(id) }

// The drive the unit tests' pools index: every PPN and LBA they use fits.
const (
	testPages = 1 << 20
	testLBAs  = 1 << 16
)

func newPool(capacity int) *Pool {
	p, err := New(Config{Capacity: capacity, MinPopularity: 2}, testPages, testLBAs)
	if err != nil {
		panic(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{Capacity: 0}).Validate(); err == nil {
		t.Error("accepted zero capacity")
	}
	if err := (Config{Capacity: math.MaxInt32}).Validate(); err == nil {
		t.Error("accepted a capacity past the int32 record index")
	}
	if p, err := New(Config{}, testPages, testLBAs); err == nil || p != nil {
		t.Errorf("New with bad config returned (%v, %v), want nil pool and error", p, err)
	}
	for _, sizes := range [][2]int64{{0, 8}, {int64(ssd.InvalidPPN) + 1, 8}, {8, 0}, {8, -1}} {
		if p, err := New(DefaultConfig(), sizes[0], sizes[1]); err == nil || p != nil {
			t.Errorf("New over %d pages, %d LBAs returned (%v, %v), want an error", sizes[0], sizes[1], p, err)
		}
	}
}

func TestAdmissionThreshold(t *testing.T) {
	p := newPool(10)
	// First sighting of a value: popularity 1 < 2, declined.
	p.RecordAccess(h(1), 5)
	p.Insert(h(1), 100, 5)
	if p.Len() != 0 {
		t.Fatalf("cold value admitted, Len = %d", p.Len())
	}
	// Second access reaches the threshold.
	p.RecordAccess(h(1), 5)
	p.Insert(h(1), 101, 5)
	if p.Len() != 1 {
		t.Fatalf("warm value declined, Len = %d", p.Len())
	}
}

func TestReadPopularityCountsTowardAdmission(t *testing.T) {
	// The critiqued behaviour: reads alone qualify a value for buffering
	// even though read popularity says nothing about rebirth.
	p := newPool(10)
	p.RecordAccess(h(2), 7) // read
	p.RecordAccess(h(2), 7) // read
	p.Insert(h(2), 200, 7)
	if p.Len() != 1 {
		t.Fatal("read-only popularity did not qualify value; LX-SSD conflates reads and writes")
	}
}

func TestLookupRevivesAndRemoves(t *testing.T) {
	p := newPool(10)
	warm := func(v uint64) {
		p.RecordAccess(h(v), v)
		p.RecordAccess(h(v), v)
	}
	warm(1)
	p.Insert(h(1), 10, 1)
	ppn, ok := p.Lookup(h(1))
	if !ok || ppn != 10 {
		t.Fatalf("Lookup = (%d,%v)", ppn, ok)
	}
	if _, ok := p.Lookup(h(1)); ok {
		t.Fatal("revived page still buffered")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionByLBARecency(t *testing.T) {
	p := newPool(2)
	warm := func(v uint64, lba uint64) {
		p.RecordAccess(h(v), lba)
		p.RecordAccess(h(v), lba)
	}
	warm(1, 1)
	warm(2, 2)
	warm(3, 3)
	p.Insert(h(1), 10, 1)
	p.Insert(h(2), 20, 2)
	// A read to LBA 1 refreshes record 1 even though the value is dead —
	// the address-recency behaviour the paper criticizes.
	p.RecordAccess(h(9), 1)
	p.Insert(h(3), 30, 3) // over capacity: evicts LRU record, now record 2
	if _, ok := p.Lookup(h(2)); ok {
		t.Fatal("record 2 should have been evicted (its address went cold)")
	}
	if _, ok := p.Lookup(h(1)); !ok {
		t.Fatal("record 1 should have been kept (its address stayed hot)")
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", p.Stats().Evictions)
	}
}

func TestDrop(t *testing.T) {
	p := newPool(10)
	p.RecordAccess(h(1), 1)
	p.RecordAccess(h(1), 1)
	p.Insert(h(1), 10, 1)
	p.Drop(10)
	if p.Len() != 0 {
		t.Fatalf("Len after drop = %d", p.Len())
	}
	p.Drop(999) // unknown: no-op
	if p.Stats().Drops != 1 {
		t.Fatalf("Drops = %d, want 1", p.Stats().Drops)
	}
}

func TestMultipleCopiesPerValue(t *testing.T) {
	p := newPool(10)
	p.RecordAccess(h(1), 1)
	p.RecordAccess(h(1), 2)
	p.Insert(h(1), 10, 1)
	p.Insert(h(1), 20, 2)
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	ppn, _ := p.Lookup(h(1))
	if ppn != 20 {
		t.Fatalf("Lookup = %d, want most recent 20", ppn)
	}
	ppn, _ = p.Lookup(h(1))
	if ppn != 10 {
		t.Fatalf("Lookup = %d, want 10", ppn)
	}
}

func TestIndexConsistencyUnderChurn(t *testing.T) {
	p := newPool(32)
	nextPPN := ssd.PPN(0)
	for i := 0; i < 5000; i++ {
		v := uint64(i % 50)
		lba := uint64(i % 70)
		p.RecordAccess(h(v), lba)
		p.Insert(h(v), nextPPN, lba)
		nextPPN++
		if i%3 == 0 {
			p.Lookup(h(uint64(i % 60)))
		}
		if i%7 == 0 {
			p.Drop(nextPPN - 1)
		}
	}
	checkIndexes(t, p)
	if p.Len() > 32 {
		t.Fatalf("capacity violated: %d", p.Len())
	}
}

// checkIndexes walks the LRU and cross-checks every index against it:
// each record is the byPPN entry for its page and sits on its hash's and
// its address's chains, every chain is well linked in both directions, and
// each slab slot is either on the LRU or on the free list.
func checkIndexes(t *testing.T, p *Pool) {
	t.Helper()
	live := make(map[int32]bool)
	walked, last := 0, nilRec
	for i := p.lru.head; i != nilRec; i = p.slab[i].links[lruList].next {
		if walked > len(p.slab) {
			t.Fatal("LRU list does not terminate")
		}
		r := &p.slab[i]
		if r.links[lruList].prev != last {
			t.Fatalf("LRU slot %d links back to %d, want %d", i, r.links[lruList].prev, last)
		}
		if p.byPPN.Get(int64(r.ppn)) != i {
			t.Fatalf("byPPN inconsistent for %d", r.ppn)
		}
		if !slices.Contains(chainSlots(p, p.byHash[r.hash], hashList), i) {
			t.Fatalf("record %d missing from byHash", r.ppn)
		}
		if !slices.Contains(chainSlots(p, p.byLBA.Get(int64(r.lba)), lbaList), i) {
			t.Fatalf("record %d missing from byLBA", r.ppn)
		}
		live[i] = true
		walked++
		last = i
	}
	if last != p.lru.tail {
		t.Fatalf("LRU ends at %d, tail is %d", last, p.lru.tail)
	}
	byPPN := 0
	p.byPPN.ForEach(func(_ int64, i int32) {
		if i != nilRec {
			byPPN++
		}
	})
	if walked != p.Len() || walked != byPPN {
		t.Fatalf("walked %d records, Len=%d byPPN=%d", walked, p.Len(), byPPN)
	}
	checkChains(t, p, p.byHash, hashList, live)
	checkChains(t, p, lbaChains(p), lbaList, live)
	free := 0
	for i := p.free; i != nilRec; i = p.slab[i].links[lruList].next {
		if live[i] || free > len(p.slab) {
			t.Fatalf("free slot %d is live or the free list loops", i)
		}
		free++
	}
	if free+walked != len(p.slab) {
		t.Fatalf("%d free + %d live slots, slab has %d", free, walked, len(p.slab))
	}
	if len(p.slab) > p.cfg.Capacity+1 || cap(p.slab) > p.cfg.Capacity+1 {
		t.Fatalf("slab len %d cap %d exceeds Capacity+1 = %d", len(p.slab), cap(p.slab), p.cfg.Capacity+1)
	}
}

// lbaChains returns every address chain that differs from the empty
// default, keyed by LBA, for checkChains.
func lbaChains(p *Pool) map[uint64]chain {
	out := make(map[uint64]chain)
	p.byLBA.ForEach(func(lba int64, c chain) {
		if c != emptyChain {
			out[uint64(lba)] = c
		}
	})
	return out
}

// chainSlots returns the slots on c, a chain of list k, head to tail. It
// stops after more slots than the slab holds, so a looping chain shows up
// as an over-long result instead of a hang.
func chainSlots(p *Pool, c chain, k int) []int32 {
	var out []int32
	for i := c.head; i != nilRec && len(out) <= len(p.slab); i = p.slab[i].links[k].next {
		out = append(out, i)
	}
	return out
}

// checkChains checks every chain of one index: non-empty, live records
// only, prev links mirroring next links, the recorded tail at the end, and
// each live record on exactly one chain.
func checkChains[K comparable](t *testing.T, p *Pool, idx map[K]chain, k int, live map[int32]bool) {
	t.Helper()
	total := 0
	for key, c := range idx {
		if c.head == nilRec {
			t.Fatalf("empty chain left in the index for %v", key)
		}
		last := nilRec
		for _, i := range chainSlots(p, c, k) {
			if !live[i] || total > len(live) {
				t.Fatalf("chain for %v reaches dead slot %d or loops", key, i)
			}
			if prev := p.slab[i].links[k].prev; prev != last {
				t.Fatalf("chain for %v: slot %d links back to %d, want %d", key, i, prev, last)
			}
			total++
			last = i
		}
		if last != c.tail {
			t.Fatalf("chain for %v ends at %d, tail is %d", key, last, c.tail)
		}
	}
	if total != len(live) {
		t.Fatalf("chains hold %d records, LRU holds %d", total, len(live))
	}
}

func TestEvictionProtectsReadPopularValues(t *testing.T) {
	// The paper's critique #1, embodied: a value that is only ever READ
	// scores high on LX's combined popularity and survives eviction, even
	// though read popularity says nothing about rebirth; the write-popular
	// record with a momentarily lower combined count is evicted instead.
	p, _ := New(Config{Capacity: 2, MinPopularity: 0}, testPages, testLBAs)
	// Value 1: heavily read, never rewritten. Value 2: written twice.
	for i := 0; i < 10; i++ {
		p.RecordAccess(h(1), 1)
	}
	p.RecordAccess(h(2), 2)
	p.Insert(h(1), 10, 1) // read-popular garbage
	p.Insert(h(2), 20, 2) // write-popular garbage (lower combined count)
	p.RecordAccess(h(3), 3)
	p.Insert(h(3), 30, 3) // overflow: eviction scans the LRU window
	if _, ok := p.Lookup(h(2)); ok {
		t.Fatal("write-popular value survived; LX should have protected the read-popular one")
	}
	if _, ok := p.Lookup(h(1)); !ok {
		t.Fatal("read-popular value was evicted; LX's flawed estimator should protect it")
	}
}

func TestAdmitAllWhenThresholdZero(t *testing.T) {
	p, _ := New(Config{Capacity: 4, MinPopularity: 0}, testPages, testLBAs)
	p.Insert(h(9), 90, 9) // no prior access at all
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (threshold 0 admits everything)", p.Len())
	}
}
