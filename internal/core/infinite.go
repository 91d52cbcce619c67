package core

import (
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// InfinitePool is the paper's "Ideal" configuration: an unbounded
// dead-value pool that never evicts for capacity. It is not implementable
// on a real device and exists to upper-bound the achievable benefit
// (Figs 1, 5, 9, 10). It shares MQPool's slab and per-PPN page lists but
// keeps no queues, and scores garbage by the ledger's current popularity.
type InfinitePool struct {
	ledger *Ledger
	slab   slab
	index  map[trace.Hash]int32
	pages  pageIndex
	stats  PoolStats
}

var _ Pool = (*InfinitePool)(nil)

// NewInfinitePool returns an empty unbounded pool. The ledger (may not be
// nil) supplies popularity for GC scoring.
func NewInfinitePool(ledger *Ledger) *InfinitePool {
	if ledger == nil {
		panic("core: NewInfinitePool requires a ledger")
	}
	return &InfinitePool{
		ledger: ledger,
		slab:   newSlab(),
		index:  make(map[trace.Hash]int32),
		pages:  newPageIndex(),
	}
}

// Insert implements Pool.
func (p *InfinitePool) Insert(h trace.Hash, ppn ssd.PPN, _ Tick) {
	p.stats.Inserts++
	i, ok := p.index[h]
	if !ok {
		i = p.slab.alloc(0)
		p.slab.entries[i] = entry{hash: h, pages: emptyPages}
		p.index[h] = i
	}
	p.pages.push(&p.slab.entries[i].pages, i, ppn)
}

// Lookup implements Pool.
func (p *InfinitePool) Lookup(h trace.Hash, _ Tick) (ssd.PPN, bool) {
	i, ok := p.index[h]
	if !ok {
		p.stats.Misses++
		return ssd.InvalidPPN, false
	}
	p.stats.Hits++
	ppn := p.slab.entries[i].pages.tail // revive the most recent death
	p.unlink(i, ppn)
	return ppn, true
}

// unlink unpools ppn from entry i, freeing the entry with its last page.
func (p *InfinitePool) unlink(i int32, ppn ssd.PPN) {
	e := &p.slab.entries[i]
	p.pages.unlink(&e.pages, ppn)
	if e.pages.n == 0 {
		delete(p.index, e.hash)
		p.slab.release(i)
	}
}

// Drop implements Pool.
func (p *InfinitePool) Drop(ppn ssd.PPN) {
	i := p.pages.slotOf(ppn)
	if i == nilSlot {
		return
	}
	p.stats.Drops++
	p.unlink(i, ppn)
}

// GarbagePopularity implements Pool.
func (p *InfinitePool) GarbagePopularity(ppn ssd.PPN) (uint8, bool) {
	i := p.pages.slotOf(ppn)
	if i == nilSlot {
		return 0, false
	}
	return p.ledger.Get(p.slab.entries[i].hash), true
}

// Len implements Pool.
func (p *InfinitePool) Len() int { return p.pages.n }

// EntryCount returns the number of distinct hashes pooled.
func (p *InfinitePool) EntryCount() int { return len(p.index) }

// Stats implements Pool.
func (p *InfinitePool) Stats() PoolStats { return p.stats }
