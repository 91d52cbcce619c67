package core

import (
	"fmt"
	"math/bits"

	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// MQConfig parameterizes an MQPool.
type MQConfig struct {
	// Queues is the number of LRU queues (the paper uses 8).
	Queues int
	// Capacity is the maximum number of entries (distinct hashes); the
	// paper's default is 200K entries ≈ 5 MB of SSD RAM.
	Capacity int
	// DefaultLifetime seeds the expiration interval before the hottest
	// entry has been observed twice (the MQ algorithm's lifeTime).
	DefaultLifetime Tick
}

// DefaultMQConfig returns the paper's configuration: 8 queues, 200K entries.
func DefaultMQConfig() MQConfig {
	return MQConfig{Queues: 8, Capacity: 200_000, DefaultLifetime: 8192}
}

// Validate reports whether the configuration is usable.
func (c MQConfig) Validate() error {
	if c.Queues <= 0 {
		return fmt.Errorf("core: MQ queue count must be positive, got %d", c.Queues)
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("core: MQ capacity must be positive, got %d", c.Capacity)
	}
	if c.DefaultLifetime <= 0 {
		return fmt.Errorf("core: MQ default lifetime must be positive, got %d", c.DefaultLifetime)
	}
	return nil
}

// MQPool is the paper's Multi-Queue dead-value pool (Sections III-A/IV).
// Entries live in one of several LRU queues chosen by popularity degree:
// an entry whose ⌊log₂(pop+1)⌋ exceeds its queue index is promoted one
// queue up on access; queue heads whose expiration time has passed are
// demoted one queue down on every update. Capacity evictions take the LRU
// entry of the lowest non-empty queue, so unpopular-and-stale zombies die
// first while popular ones survive to be revived.
//
// Entries live in a slab linked by index, and each entry's garbage pages
// form a list threaded through a PPN-indexed sparse array, so a warmed
// pool allocates nothing and Drop and GarbagePopularity are array reads.
type MQPool struct {
	cfg    MQConfig
	ledger *Ledger

	slab   slab
	queues []queue
	index  map[trace.Hash]int32
	pages  pageIndex

	// Hottest-entry tracking, used to derive the expiration interval: the
	// interval between the hottest entry's last two accesses (Section IV-C).
	hottestHash     trace.Hash
	hottestPop      uint8
	hottestLast     Tick
	hottestInterval Tick
	hottestValid    bool

	stats PoolStats
}

var _ Pool = (*MQPool)(nil)

// NewMQPool returns an MQPool with the given configuration. The ledger
// supplies popularity degrees; it must be the same ledger the FTL bumps on
// every write. Panics on an invalid configuration (a construction bug, not
// a runtime condition).
func NewMQPool(cfg MQConfig, ledger *Ledger) *MQPool {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if ledger == nil {
		panic("core: NewMQPool requires a ledger")
	}
	queues := make([]queue, cfg.Queues)
	for i := range queues {
		queues[i] = emptyQueue
	}
	return &MQPool{
		cfg:             cfg,
		ledger:          ledger,
		slab:            newSlab(),
		queues:          queues,
		index:           make(map[trace.Hash]int32, cfg.Capacity),
		pages:           newPageIndex(),
		hottestInterval: cfg.DefaultLifetime,
	}
}

// NewLRUPool returns the single-queue dead-value pool of Section III, pure
// recency with no popularity, holding at most capacity entries. The paper
// uses it to show (Figs 5–6) that plain LRU leaves many misses on the
// table for popular values, motivating MQ. It is an MQPool with one
// queue: nothing is ever promoted or demoted, so replacement is exactly
// LRU. The ledger supplies popularity degrees for GC scoring only. Panics
// on a non-positive capacity or nil ledger (construction bugs).
func NewLRUPool(capacity int, ledger *Ledger) *MQPool {
	if capacity <= 0 {
		panic("core: LRU pool capacity must be positive")
	}
	if ledger == nil {
		panic("core: NewLRUPool requires a ledger")
	}
	return NewMQPool(MQConfig{Queues: 1, Capacity: capacity, DefaultLifetime: 1}, ledger)
}

// queueFor maps a popularity degree to its home queue: ⌊log₂(pop+1)⌋,
// clamped to the top queue.
func (p *MQPool) queueFor(pop uint8) int {
	q := bits.Len16(uint16(pop)+1) - 1
	if q >= p.cfg.Queues {
		q = p.cfg.Queues - 1
	}
	return q
}

// Insert implements Pool. It also runs the demotion sweep and capacity
// eviction, which the paper performs "upon each update".
func (p *MQPool) Insert(h trace.Hash, ppn ssd.PPN, now Tick) {
	p.stats.Inserts++
	if i, ok := p.index[h]; ok {
		p.pages.push(&p.slab.entries[i].pages, i, ppn)
		p.touch(i, now)
	} else {
		i = p.slab.alloc(p.cfg.Capacity + 1) // admitted before the eviction
		e := &p.slab.entries[i]
		// Inserts always start at the bottom queue.
		*e = entry{hash: h, pages: emptyPages, pop: p.ledger.Get(h), expire: now + p.hottestInterval}
		p.slab.pushTail(&p.queues[0], i)
		p.index[h] = i
		p.pages.push(&e.pages, i, ppn)
		p.observeHottest(e, now)
	}
	p.demoteExpired(now)
	for len(p.index) > p.cfg.Capacity {
		p.evictOne()
	}
}

// Lookup implements Pool.
func (p *MQPool) Lookup(h trace.Hash, now Tick) (ssd.PPN, bool) {
	i, ok := p.index[h]
	if !ok {
		p.stats.Misses++
		return ssd.InvalidPPN, false
	}
	p.stats.Hits++
	l := &p.slab.entries[i].pages
	ppn := l.tail // revive the most recent death
	p.pages.unlink(l, ppn)
	if l.n == 0 {
		// The entry no longer describes any garbage page; it leaves the
		// pool (the paper: "this entry is removed since it does not
		// contain the information of a garbage page anymore").
		p.removeEntry(i)
	} else {
		p.touch(i, now)
	}
	return ppn, true
}

// touch refreshes recency, popularity, promotion and expiration of entry i
// after an access at write-clock now.
func (p *MQPool) touch(i int32, now Tick) {
	e := &p.slab.entries[i]
	e.pop = p.ledger.Get(e.hash)
	p.slab.moveToTail(&p.queues[e.queue], i)
	if target := p.queueFor(e.pop); target > int(e.queue) {
		// Promote one queue up per access (paper: "promoted to one higher
		// queue").
		p.slab.remove(&p.queues[e.queue], i)
		e.queue++
		p.slab.pushTail(&p.queues[e.queue], i)
		p.stats.Promoted++
	}
	e.expire = now + p.hottestInterval
	p.observeHottest(e, now)
}

// observeHottest maintains the hottest entry and the interval between its
// last two accesses, which becomes the pool-wide expiration interval.
func (p *MQPool) observeHottest(e *entry, now Tick) {
	switch {
	case p.hottestValid && e.hash == p.hottestHash:
		// Re-access of the current hottest entry: the gap between its last
		// two accesses becomes the expiration interval.
		if iv := now - p.hottestLast; iv > 0 {
			p.hottestInterval = iv
		}
		p.hottestLast = now
		p.hottestPop = e.pop
	case !p.hottestValid || e.pop > p.hottestPop:
		p.hottestValid = true
		p.hottestHash = e.hash
		p.hottestPop = e.pop
		p.hottestLast = now
	}
}

// demoteExpired checks the head (LRU end) of every queue above the bottom
// and demotes it one queue down if its expiration time has passed.
func (p *MQPool) demoteExpired(now Tick) {
	for q := len(p.queues) - 1; q >= 1; q-- {
		head := p.queues[q].head
		if head == nilSlot || p.slab.entries[head].expire >= now {
			continue
		}
		p.slab.remove(&p.queues[q], head)
		e := &p.slab.entries[head]
		e.queue = int32(q - 1)
		e.expire = now + p.hottestInterval
		p.slab.pushTail(&p.queues[q-1], head)
		p.stats.Demoted++
	}
}

// evictOne removes the LRU entry of the lowest non-empty queue.
func (p *MQPool) evictOne() {
	for q := range p.queues {
		if head := p.queues[q].head; head != nilSlot {
			p.stats.Evictions += int64(p.slab.entries[head].pages.n)
			p.removeEntry(head)
			return
		}
	}
}

// removeEntry removes entry i and all its remaining pages from every
// index and frees its slot.
func (p *MQPool) removeEntry(i int32) {
	e := &p.slab.entries[i]
	p.slab.remove(&p.queues[e.queue], i)
	delete(p.index, e.hash)
	p.pages.clear(&e.pages)
	p.slab.release(i)
}

// Drop implements Pool.
func (p *MQPool) Drop(ppn ssd.PPN) {
	i := p.pages.slotOf(ppn)
	if i == nilSlot {
		return
	}
	p.stats.Drops++
	l := &p.slab.entries[i].pages
	p.pages.unlink(l, ppn)
	if l.n == 0 {
		p.removeEntry(i)
	}
}

// GarbagePopularity implements Pool.
func (p *MQPool) GarbagePopularity(ppn ssd.PPN) (uint8, bool) {
	i := p.pages.slotOf(ppn)
	if i == nilSlot {
		return 0, false
	}
	return p.slab.entries[i].pop, true
}

// Len implements Pool: the number of pooled garbage pages.
func (p *MQPool) Len() int { return p.pages.n }

// EntryCount returns the number of distinct hashes pooled.
func (p *MQPool) EntryCount() int { return len(p.index) }

// QueueLengths returns the number of entries in each queue, bottom first;
// useful for introspection and tests.
func (p *MQPool) QueueLengths() []int {
	out := make([]int, len(p.queues))
	for i := range p.queues {
		out[i] = p.queues[i].n
	}
	return out
}

// Stats implements Pool.
func (p *MQPool) Stats() PoolStats { return p.stats }
