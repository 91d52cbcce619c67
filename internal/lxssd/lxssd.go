// Package lxssd reconstructs the prior-work comparison point LX-SSD
// (Zhou et al., MSST'17) as the paper describes it, including the two
// design choices the paper critiques (Section I):
//
//  1. Recycling probability is estimated from value popularity over reads
//     AND writes — but read-popular values are not necessarily rewritten,
//     so buffer space is wasted on them.
//  2. Buffer replacement follows the recency of the *page addresses*
//     (LBAs) associated with garbage pages, not of the values — so a
//     popular value whose old addresses go cold is evicted even though it
//     is about to be reborn, and read traffic to an address keeps useless
//     garbage pinned.
//
// The original system is closed source; this is a behavioural
// reimplementation from the description, sufficient for the Fig 11
// comparison.
package lxssd

import (
	"fmt"
	"math"

	"zombiessd/internal/core"
	"zombiessd/internal/sparse"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// nilRec is the null record index.
const nilRec int32 = -1

// record is one buffered garbage page, tied to the logical address whose
// update created it. A record sits on three intrusive lists at once, each
// linked by slab index: the LRU, its value's copies and its address's
// garbage pages. Every list keeps insertion order except the LRU, which
// moves a record to the tail when its address is touched.
type record struct {
	lba  uint64
	hash trace.Hash
	ppn  ssd.PPN

	links [3]links // indexed by lruList, hashList, lbaList
}

// The lists a record is linked into. A free slot reuses its LRU links.
const (
	lruList = iota
	hashList
	lbaList
)

type links struct {
	prev, next int32
}

// chain is the head and tail of one list.
type chain struct {
	head, tail int32
}

var emptyChain = chain{head: nilRec, tail: nilRec}

// Config parameterizes the LX-SSD recycler.
type Config struct {
	// Capacity is the maximum number of buffered garbage pages.
	Capacity int
	// MinPopularity is the admission threshold: a garbage page is buffered
	// only when its value's read+write popularity has reached this count.
	MinPopularity uint16
}

// DefaultConfig matches the DVP's default footprint: 200K records,
// admission after the second access.
func DefaultConfig() Config { return Config{Capacity: 200_000, MinPopularity: 2} }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("lxssd: capacity must be positive, got %d", c.Capacity)
	}
	if c.Capacity >= math.MaxInt32 {
		return fmt.Errorf("lxssd: capacity %d exceeds the record index space", c.Capacity)
	}
	return nil
}

// Pool is the LX-SSD garbage-page recycler. Records live in a slab that
// grows on demand to Capacity+1 slots (Insert admits before it evicts)
// and recycles freed slots, so a warmed pool allocates nothing. The page
// and address indexes are sparse arrays over the drive's physical and
// logical spaces.
type Pool struct {
	cfg Config

	slab []record
	free int32 // head of the free-slot list
	lru  chain // by LBA-access recency: head is least recent
	n    int

	byHash map[trace.Hash]chain
	byLBA  *sparse.Array[chain] // emptyChain when the address has no record
	byPPN  *sparse.Array[int32] // nilRec when the page is not buffered

	// pop counts accesses per value over reads and writes combined —
	// deliberately conflating the two, as the paper says LX-SSD does.
	pop map[trace.Hash]uint16

	stats core.PoolStats
}

// New returns an empty LX-SSD pool for a drive of physicalPages pages and
// logicalPages host addresses, or a wrapped configuration error — surfaced
// on the host path as a CellError by RunMatrix, never a panic. Callers
// pass only PPNs and LBAs inside those spaces.
func New(cfg Config, physicalPages, logicalPages int64) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("lxssd: %w", err)
	}
	if physicalPages <= 0 || physicalPages > int64(ssd.InvalidPPN) {
		return nil, fmt.Errorf("lxssd: physical pages must be in [1,%d], got %d", int64(ssd.InvalidPPN), physicalPages)
	}
	if logicalPages <= 0 {
		return nil, fmt.Errorf("lxssd: logical pages must be positive, got %d", logicalPages)
	}
	return &Pool{
		cfg:    cfg,
		free:   nilRec,
		lru:    emptyChain,
		byHash: make(map[trace.Hash]chain),
		byLBA:  sparse.New(logicalPages, emptyChain),
		byPPN:  sparse.New(physicalPages, nilRec),
		pop:    make(map[trace.Hash]uint16),
	}, nil
}

// RecordAccess observes any host access (read or write) to value h at
// address lba: it bumps the combined popularity and refreshes the recency
// of every buffered garbage page associated with that address.
func (p *Pool) RecordAccess(h trace.Hash, lba uint64) {
	if c := p.pop[h]; c < ^uint16(0) {
		p.pop[h] = c + 1
	}
	c := p.byLBA.Get(int64(lba))
	for i := c.head; i != nilRec; i = p.slab[i].links[lbaList].next {
		if i != p.lru.tail {
			p.unlink(&p.lru, i, lruList)
			p.push(&p.lru, i, lruList)
		}
	}
}

// Insert offers a garbage page to the buffer. Pages whose value has not yet
// reached the admission popularity are declined (and counted as evictions
// of opportunity).
func (p *Pool) Insert(h trace.Hash, ppn ssd.PPN, lba uint64) {
	p.stats.Inserts++
	if p.pop[h] < p.cfg.MinPopularity {
		return
	}
	i := p.alloc()
	r := &p.slab[i]
	r.lba, r.hash, r.ppn = lba, h, ppn
	p.push(&p.lru, i, lruList)
	p.n++
	c, ok := p.byHash[h]
	if !ok {
		c = emptyChain
	}
	p.push(&c, i, hashList)
	p.byHash[h] = c
	c = p.byLBA.Get(int64(lba))
	p.push(&c, i, lbaList)
	p.byLBA.Set(int64(lba), c)
	p.byPPN.Set(int64(ppn), i)
	for p.n > p.cfg.Capacity {
		p.stats.Evictions++
		p.removeRecord(p.evictionVictim())
	}
}

// alloc takes a slot from the free list, or grows the slab by one. The
// slab never outgrows Capacity+1 slots, so its capacity is capped there.
func (p *Pool) alloc() int32 {
	if i := p.free; i != nilRec {
		p.free = p.slab[i].links[lruList].next
		return i
	}
	if len(p.slab) == cap(p.slab) {
		grown := make([]record, len(p.slab), min(max(2*cap(p.slab), 64), p.cfg.Capacity+1))
		copy(grown, p.slab)
		p.slab = grown
	}
	p.slab = append(p.slab, record{})
	return int32(len(p.slab) - 1)
}

// push appends slot i to the tail of c, one of the k lists.
func (p *Pool) push(c *chain, i int32, k int) {
	l := &p.slab[i].links[k]
	l.prev, l.next = c.tail, nilRec
	if c.tail != nilRec {
		p.slab[c.tail].links[k].next = i
	} else {
		c.head = i
	}
	c.tail = i
}

// unlink removes slot i from c, one of the k lists.
func (p *Pool) unlink(c *chain, i int32, k int) {
	l := p.slab[i].links[k]
	if l.prev != nilRec {
		p.slab[l.prev].links[k].next = l.next
	} else {
		c.head = l.next
	}
	if l.next != nilRec {
		p.slab[l.next].links[k].prev = l.prev
	} else {
		c.tail = l.prev
	}
}

// evictionVictim scans a small window at the LRU end and picks the record
// whose value has the lowest read+write popularity — LX-SSD's recycling-
// probability estimate. The flaw the paper calls out is built in: a value
// that is only ever *read* scores high and survives, crowding out garbage
// that would actually be rewritten.
func (p *Pool) evictionVictim() int32 {
	const window = 8
	victim := p.lru.head
	best := p.pop[p.slab[victim].hash]
	i := p.slab[victim].links[lruList].next
	for k := 1; k < window && i != nilRec; k++ {
		if pop := p.pop[p.slab[i].hash]; pop < best {
			best = pop
			victim = i
		}
		i = p.slab[i].links[lruList].next
	}
	return victim
}

// Lookup searches for a buffered garbage copy of h; on a hit the record is
// removed and its PPN returned for revival.
func (p *Pool) Lookup(h trace.Hash) (ssd.PPN, bool) {
	c, ok := p.byHash[h]
	if !ok {
		p.stats.Misses++
		return ssd.InvalidPPN, false
	}
	p.stats.Hits++
	ppn := p.slab[c.tail].ppn
	p.removeRecord(c.tail)
	return ppn, true
}

// Drop removes the record for ppn, if buffered (GC erased the page).
func (p *Pool) Drop(ppn ssd.PPN) {
	i := p.byPPN.Get(int64(ppn))
	if i == nilRec {
		return
	}
	p.stats.Drops++
	p.removeRecord(i)
}

// removeRecord unlinks slot i from all three lists and the PPN index and
// returns it to the free list.
func (p *Pool) removeRecord(i int32) {
	r := &p.slab[i]
	p.unlink(&p.lru, i, lruList)
	p.n--
	p.byPPN.Set(int64(r.ppn), nilRec)
	c := p.byHash[r.hash]
	p.unlink(&c, i, hashList)
	if c.head == nilRec {
		delete(p.byHash, r.hash)
	} else {
		p.byHash[r.hash] = c
	}
	c = p.byLBA.Get(int64(r.lba))
	p.unlink(&c, i, lbaList)
	p.byLBA.Set(int64(r.lba), c)
	r.links[lruList].next = p.free
	p.free = i
}

// Len returns the number of buffered garbage pages.
func (p *Pool) Len() int { return p.n }

// Stats returns cumulative counters.
func (p *Pool) Stats() core.PoolStats { return p.stats }
