package lxssd

// The pre-slab Pool, kept verbatim (types renamed) as the reference model
// that TestLXPoolMatchesReference and FuzzLXPoolOps drive in lockstep with
// the Pool. Records are heap objects; the per-hash and per-LBA indexes are
// slices that a removal scans.

import (
	"fmt"

	"zombiessd/internal/core"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// refRecord is one buffered garbage page, tied to the logical address whose
// update created it.
type refRecord struct {
	lba  uint64
	hash trace.Hash
	ppn  ssd.PPN

	prev, next *refRecord
}

type refRecordList struct {
	head, tail *refRecord
	n          int
}

func (l *refRecordList) pushTail(r *refRecord) {
	r.prev, r.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = r
	} else {
		l.head = r
	}
	l.tail = r
	l.n++
}

func (l *refRecordList) remove(r *refRecord) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		l.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		l.tail = r.prev
	}
	r.prev, r.next = nil, nil
	l.n--
}

func (l *refRecordList) moveToTail(r *refRecord) {
	if l.tail == r {
		return
	}
	l.remove(r)
	l.pushTail(r)
}

// refPool is the LX-SSD garbage-page recycler.
type refPool struct {
	cfg Config

	list   refRecordList // LRU by LBA-access recency
	byHash map[trace.Hash][]*refRecord
	byLBA  map[uint64][]*refRecord
	byPPN  map[ssd.PPN]*refRecord

	// pop counts accesses per value over reads and writes combined —
	// deliberately conflating the two, as the paper says LX-SSD does.
	pop map[trace.Hash]uint16

	stats core.PoolStats
}

// newRefPool returns an empty LX-SSD pool, or a wrapped configuration error —
// surfaced on the host path as a CellError by RunMatrix, never a panic.
func newRefPool(cfg Config) (*refPool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("lxssd: %w", err)
	}
	return &refPool{
		cfg:    cfg,
		byHash: make(map[trace.Hash][]*refRecord),
		byLBA:  make(map[uint64][]*refRecord),
		byPPN:  make(map[ssd.PPN]*refRecord),
		pop:    make(map[trace.Hash]uint16),
	}, nil
}

// RecordAccess observes any host access (read or write) to value h at
// address lba: it bumps the combined popularity and refreshes the recency
// of every buffered garbage page associated with that address.
func (p *refPool) RecordAccess(h trace.Hash, lba uint64) {
	if c := p.pop[h]; c < ^uint16(0) {
		p.pop[h] = c + 1
	}
	for _, r := range p.byLBA[lba] {
		p.list.moveToTail(r)
	}
}

// Insert offers a garbage page to the buffer. Pages whose value has not yet
// reached the admission popularity are declined (and counted as evictions
// of opportunity).
func (p *refPool) Insert(h trace.Hash, ppn ssd.PPN, lba uint64) {
	p.stats.Inserts++
	if p.pop[h] < p.cfg.MinPopularity {
		return
	}
	r := &refRecord{lba: lba, hash: h, ppn: ppn}
	p.list.pushTail(r)
	p.byHash[h] = append(p.byHash[h], r)
	p.byLBA[lba] = append(p.byLBA[lba], r)
	p.byPPN[ppn] = r
	for p.list.n > p.cfg.Capacity {
		p.stats.Evictions++
		p.removeRecord(p.evictionVictim())
	}
}

// evictionVictim scans a small window at the LRU end and picks the record
// whose value has the lowest read+write popularity — LX-SSD's recycling-
// probability estimate. The flaw the paper calls out is built in: a value
// that is only ever *read* scores high and survives, crowding out garbage
// that would actually be rewritten.
func (p *refPool) evictionVictim() *refRecord {
	const window = 8
	victim := p.list.head
	best := p.pop[victim.hash]
	r := victim.next
	for i := 1; i < window && r != nil; i++ {
		if pop := p.pop[r.hash]; pop < best {
			best = pop
			victim = r
		}
		r = r.next
	}
	return victim
}

// Lookup searches for a buffered garbage copy of h; on a hit the record is
// removed and its PPN returned for revival.
func (p *refPool) Lookup(h trace.Hash) (ssd.PPN, bool) {
	recs := p.byHash[h]
	if len(recs) == 0 {
		p.stats.Misses++
		return ssd.InvalidPPN, false
	}
	p.stats.Hits++
	r := recs[len(recs)-1]
	ppn := r.ppn
	p.removeRecord(r)
	return ppn, true
}

// Drop removes the record for ppn, if buffered (GC erased the page).
func (p *refPool) Drop(ppn ssd.PPN) {
	r, ok := p.byPPN[ppn]
	if !ok {
		return
	}
	p.stats.Drops++
	p.removeRecord(r)
}

func (p *refPool) removeRecord(r *refRecord) {
	p.list.remove(r)
	delete(p.byPPN, r.ppn)
	p.byHash[r.hash] = refRemoveFrom(p.byHash[r.hash], r)
	if len(p.byHash[r.hash]) == 0 {
		delete(p.byHash, r.hash)
	}
	p.byLBA[r.lba] = refRemoveFrom(p.byLBA[r.lba], r)
	if len(p.byLBA[r.lba]) == 0 {
		delete(p.byLBA, r.lba)
	}
}

func refRemoveFrom(recs []*refRecord, r *refRecord) []*refRecord {
	for i, x := range recs {
		if x == r {
			return append(recs[:i], recs[i+1:]...)
		}
	}
	return recs
}

// Len returns the number of buffered garbage pages.
func (p *refPool) Len() int { return p.list.n }

// Stats returns cumulative counters.
func (p *refPool) Stats() core.PoolStats { return p.stats }
