package core

// This file keeps the pre-slab pools verbatim, types renamed, as reference
// models: pointer-linked MQ entries with a per-entry PPN slice, the
// separate single-queue LRU pool, and the map-backed infinite pool.
// TestPoolsMatchReference and FuzzMQOps replay the same operations on the
// production pools and on these, and compare every observable.

import (
	"math/bits"

	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// refEntry is one dead-value pool record: a value hash, the garbage physical
// pages currently holding that value, its popularity degree, and — for MQ —
// its queue index and expiration time (Fig 8 of the paper).
type refEntry struct {
	hash   trace.Hash
	ppns   []ssd.PPN
	pop    uint8
	expire Tick
	queue  int

	prev, next *refEntry
}

// refEntryList is an intrusive doubly-linked LRU list: head is least recently
// used, tail is most recently used.
type refEntryList struct {
	head, tail *refEntry
	n          int
}

func (l *refEntryList) pushTail(e *refEntry) {
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.n++
}

func (l *refEntryList) remove(e *refEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

func (l *refEntryList) moveToTail(e *refEntry) {
	if l.tail == e {
		return
	}
	l.remove(e)
	l.pushTail(e)
}

// refMQPool is the paper's Multi-Queue dead-value pool (Sections III-A/IV).
// Entries live in one of several LRU queues chosen by popularity degree:
// an entry whose ⌊log₂(pop+1)⌋ exceeds its queue index is promoted one
// queue up on access; queue heads whose expiration time has passed are
// demoted one queue down on every update. Capacity evictions take the LRU
// entry of the lowest non-empty queue, so unpopular-and-stale zombies die
// first while popular ones survive to be revived.
type refMQPool struct {
	cfg    MQConfig
	ledger *Ledger

	queues []refEntryList
	index  map[trace.Hash]*refEntry
	byPPN  map[ssd.PPN]*refEntry
	pages  int // total pooled PPNs

	// Hottest-entry tracking, used to derive the expiration interval: the
	// interval between the hottest entry's last two accesses (Section IV-C).
	hottestHash     trace.Hash
	hottestPop      uint8
	hottestLast     Tick
	hottestInterval Tick
	hottestValid    bool

	stats PoolStats
}

var _ Pool = (*refMQPool)(nil)

// newRefMQPool returns a refMQPool with the given configuration. The ledger
// supplies popularity degrees; it must be the same ledger the FTL bumps on
// every write. Panics on an invalid configuration (a construction bug, not
// a runtime condition).
func newRefMQPool(cfg MQConfig, ledger *Ledger) *refMQPool {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if ledger == nil {
		panic("core: newRefMQPool requires a ledger")
	}
	return &refMQPool{
		cfg:             cfg,
		ledger:          ledger,
		queues:          make([]refEntryList, cfg.Queues),
		index:           make(map[trace.Hash]*refEntry, cfg.Capacity),
		byPPN:           make(map[ssd.PPN]*refEntry, cfg.Capacity),
		hottestInterval: cfg.DefaultLifetime,
	}
}

// queueFor maps a popularity degree to its home queue: ⌊log₂(pop+1)⌋,
// clamped to the top queue.
func (p *refMQPool) queueFor(pop uint8) int {
	q := bits.Len16(uint16(pop)+1) - 1
	if q >= p.cfg.Queues {
		q = p.cfg.Queues - 1
	}
	return q
}

// Insert implements Pool. It also runs the demotion sweep and capacity
// eviction, which the paper performs "upon each update".
func (p *refMQPool) Insert(h trace.Hash, ppn ssd.PPN, now Tick) {
	p.stats.Inserts++
	if e, ok := p.index[h]; ok {
		e.ppns = append(e.ppns, ppn)
		p.byPPN[ppn] = e
		p.pages++
		p.touch(e, now)
	} else {
		e := &refEntry{hash: h, ppns: []ssd.PPN{ppn}, pop: p.ledger.Get(h)}
		e.queue = 0 // inserts always start at the bottom queue
		e.expire = now + p.hottestInterval
		p.queues[0].pushTail(e)
		p.index[h] = e
		p.byPPN[ppn] = e
		p.pages++
		p.observeHottest(e, now)
	}
	p.demoteExpired(now)
	for len(p.index) > p.cfg.Capacity {
		p.evictOne()
	}
}

// Lookup implements Pool.
func (p *refMQPool) Lookup(h trace.Hash, now Tick) (ssd.PPN, bool) {
	e, ok := p.index[h]
	if !ok {
		p.stats.Misses++
		return ssd.InvalidPPN, false
	}
	p.stats.Hits++
	ppn := e.ppns[len(e.ppns)-1] // revive the most recent death
	e.ppns = e.ppns[:len(e.ppns)-1]
	delete(p.byPPN, ppn)
	p.pages--
	if len(e.ppns) == 0 {
		// The entry no longer describes any garbage page; it leaves the
		// pool (the paper: "this entry is removed since it does not
		// contain the information of a garbage page anymore").
		p.removeEntry(e)
	} else {
		p.touch(e, now)
	}
	return ppn, true
}

// touch refreshes recency, popularity, promotion and expiration of e after
// an access at write-clock now.
func (p *refMQPool) touch(e *refEntry, now Tick) {
	e.pop = p.ledger.Get(e.hash)
	p.queues[e.queue].moveToTail(e)
	if target := p.queueFor(e.pop); target > e.queue {
		// Promote one queue up per access (paper: "promoted to one higher
		// queue").
		p.queues[e.queue].remove(e)
		e.queue++
		p.queues[e.queue].pushTail(e)
		p.stats.Promoted++
	}
	e.expire = now + p.hottestInterval
	p.observeHottest(e, now)
}

// observeHottest maintains the hottest entry and the interval between its
// last two accesses, which becomes the pool-wide expiration interval.
func (p *refMQPool) observeHottest(e *refEntry, now Tick) {
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
func (p *refMQPool) demoteExpired(now Tick) {
	for q := len(p.queues) - 1; q >= 1; q-- {
		head := p.queues[q].head
		if head == nil || head.expire >= now {
			continue
		}
		p.queues[q].remove(head)
		head.queue = q - 1
		head.expire = now + p.hottestInterval
		p.queues[q-1].pushTail(head)
		p.stats.Demoted++
	}
}

// evictOne removes the LRU entry of the lowest non-empty queue.
func (p *refMQPool) evictOne() {
	for q := range p.queues {
		if head := p.queues[q].head; head != nil {
			p.stats.Evictions += int64(len(head.ppns))
			p.removeEntry(head)
			return
		}
	}
}

// removeEntry removes e and all its remaining PPNs from every index.
func (p *refMQPool) removeEntry(e *refEntry) {
	p.queues[e.queue].remove(e)
	delete(p.index, e.hash)
	for _, ppn := range e.ppns {
		delete(p.byPPN, ppn)
	}
	p.pages -= len(e.ppns)
	e.ppns = nil
}

// Drop implements Pool.
func (p *refMQPool) Drop(ppn ssd.PPN) {
	e, ok := p.byPPN[ppn]
	if !ok {
		return
	}
	p.stats.Drops++
	delete(p.byPPN, ppn)
	for i, x := range e.ppns {
		if x == ppn {
			e.ppns = append(e.ppns[:i], e.ppns[i+1:]...)
			break
		}
	}
	p.pages--
	if len(e.ppns) == 0 {
		p.removeEntry(e)
	}
}

// GarbagePopularity implements Pool.
func (p *refMQPool) GarbagePopularity(ppn ssd.PPN) (uint8, bool) {
	e, ok := p.byPPN[ppn]
	if !ok {
		return 0, false
	}
	return e.pop, true
}

// Len implements Pool: the number of pooled garbage pages.
func (p *refMQPool) Len() int { return p.pages }

// EntryCount returns the number of distinct hashes pooled.
func (p *refMQPool) EntryCount() int { return len(p.index) }

// QueueLengths returns the number of entries in each queue, bottom first;
// useful for introspection and tests.
func (p *refMQPool) QueueLengths() []int {
	out := make([]int, len(p.queues))
	for i := range p.queues {
		out[i] = p.queues[i].n
	}
	return out
}

// Stats implements Pool.
func (p *refMQPool) Stats() PoolStats { return p.stats }

// refLRUPool is the single-queue dead-value pool of Section III: pure recency,
// no popularity. The paper uses it to show (Figs 5–6) that plain LRU leaves
// many misses on the table for popular values, motivating MQ.
type refLRUPool struct {
	capacity int // max entries (distinct hashes)
	ledger   *Ledger

	list  refEntryList
	index map[trace.Hash]*refEntry
	byPPN map[ssd.PPN]*refEntry
	pages int

	stats PoolStats
}

var _ Pool = (*refLRUPool)(nil)

// newRefLRUPool returns a refLRUPool holding at most capacity entries. The
// ledger supplies popularity degrees for GC scoring only; replacement
// ignores popularity by design. Panics on a non-positive capacity or nil
// ledger (construction bugs).
func newRefLRUPool(capacity int, ledger *Ledger) *refLRUPool {
	if capacity <= 0 {
		panic("core: LRU pool capacity must be positive")
	}
	if ledger == nil {
		panic("core: newRefLRUPool requires a ledger")
	}
	return &refLRUPool{
		capacity: capacity,
		ledger:   ledger,
		index:    make(map[trace.Hash]*refEntry, capacity),
		byPPN:    make(map[ssd.PPN]*refEntry, capacity),
	}
}

// Insert implements Pool.
func (p *refLRUPool) Insert(h trace.Hash, ppn ssd.PPN, now Tick) {
	p.stats.Inserts++
	if e, ok := p.index[h]; ok {
		e.ppns = append(e.ppns, ppn)
		e.pop = p.ledger.Get(h)
		p.byPPN[ppn] = e
		p.pages++
		p.list.moveToTail(e)
		return
	}
	e := &refEntry{hash: h, ppns: []ssd.PPN{ppn}, pop: p.ledger.Get(h)}
	p.list.pushTail(e)
	p.index[h] = e
	p.byPPN[ppn] = e
	p.pages++
	for len(p.index) > p.capacity {
		head := p.list.head
		p.stats.Evictions += int64(len(head.ppns))
		p.removeEntry(head)
	}
}

// Lookup implements Pool.
func (p *refLRUPool) Lookup(h trace.Hash, now Tick) (ssd.PPN, bool) {
	e, ok := p.index[h]
	if !ok {
		p.stats.Misses++
		return ssd.InvalidPPN, false
	}
	p.stats.Hits++
	ppn := e.ppns[len(e.ppns)-1]
	e.ppns = e.ppns[:len(e.ppns)-1]
	delete(p.byPPN, ppn)
	p.pages--
	if len(e.ppns) == 0 {
		p.removeEntry(e)
	} else {
		e.pop = p.ledger.Get(h)
		p.list.moveToTail(e)
	}
	return ppn, true
}

func (p *refLRUPool) removeEntry(e *refEntry) {
	p.list.remove(e)
	delete(p.index, e.hash)
	for _, ppn := range e.ppns {
		delete(p.byPPN, ppn)
	}
	p.pages -= len(e.ppns)
	e.ppns = nil
}

// Drop implements Pool.
func (p *refLRUPool) Drop(ppn ssd.PPN) {
	e, ok := p.byPPN[ppn]
	if !ok {
		return
	}
	p.stats.Drops++
	delete(p.byPPN, ppn)
	for i, x := range e.ppns {
		if x == ppn {
			e.ppns = append(e.ppns[:i], e.ppns[i+1:]...)
			break
		}
	}
	p.pages--
	if len(e.ppns) == 0 {
		p.removeEntry(e)
	}
}

// GarbagePopularity implements Pool.
func (p *refLRUPool) GarbagePopularity(ppn ssd.PPN) (uint8, bool) {
	e, ok := p.byPPN[ppn]
	if !ok {
		return 0, false
	}
	return e.pop, true
}

// Len implements Pool.
func (p *refLRUPool) Len() int { return p.pages }

// EntryCount returns the number of distinct hashes pooled.
func (p *refLRUPool) EntryCount() int { return len(p.index) }

// Stats implements Pool.
func (p *refLRUPool) Stats() PoolStats { return p.stats }

// refInfinitePool is the paper's "Ideal" configuration: an unbounded
// dead-value pool that never evicts for capacity. It is not implementable
// on a real device and exists to upper-bound the achievable benefit
// (Figs 1, 5, 9, 10).
type refInfinitePool struct {
	ledger *Ledger
	index  map[trace.Hash][]ssd.PPN
	byPPN  map[ssd.PPN]trace.Hash
	stats  PoolStats
}

var _ Pool = (*refInfinitePool)(nil)

// newRefInfinitePool returns an empty unbounded pool. The ledger (may not be
// nil) supplies popularity for GC scoring.
func newRefInfinitePool(ledger *Ledger) *refInfinitePool {
	if ledger == nil {
		panic("core: newRefInfinitePool requires a ledger")
	}
	return &refInfinitePool{
		ledger: ledger,
		index:  make(map[trace.Hash][]ssd.PPN),
		byPPN:  make(map[ssd.PPN]trace.Hash),
	}
}

// Insert implements Pool.
func (p *refInfinitePool) Insert(h trace.Hash, ppn ssd.PPN, _ Tick) {
	p.stats.Inserts++
	p.index[h] = append(p.index[h], ppn)
	p.byPPN[ppn] = h
}

// Lookup implements Pool.
func (p *refInfinitePool) Lookup(h trace.Hash, _ Tick) (ssd.PPN, bool) {
	ppns := p.index[h]
	if len(ppns) == 0 {
		p.stats.Misses++
		return ssd.InvalidPPN, false
	}
	p.stats.Hits++
	ppn := ppns[len(ppns)-1]
	ppns = ppns[:len(ppns)-1]
	if len(ppns) == 0 {
		delete(p.index, h)
	} else {
		p.index[h] = ppns
	}
	delete(p.byPPN, ppn)
	return ppn, true
}

// Drop implements Pool.
func (p *refInfinitePool) Drop(ppn ssd.PPN) {
	h, ok := p.byPPN[ppn]
	if !ok {
		return
	}
	p.stats.Drops++
	delete(p.byPPN, ppn)
	ppns := p.index[h]
	for i, x := range ppns {
		if x == ppn {
			ppns = append(ppns[:i], ppns[i+1:]...)
			break
		}
	}
	if len(ppns) == 0 {
		delete(p.index, h)
	} else {
		p.index[h] = ppns
	}
}

// GarbagePopularity implements Pool.
func (p *refInfinitePool) GarbagePopularity(ppn ssd.PPN) (uint8, bool) {
	h, ok := p.byPPN[ppn]
	if !ok {
		return 0, false
	}
	return p.ledger.Get(h), true
}

// Len implements Pool.
func (p *refInfinitePool) Len() int { return len(p.byPPN) }

// EntryCount returns the number of distinct hashes pooled.
func (p *refInfinitePool) EntryCount() int { return len(p.index) }

// Stats implements Pool.
func (p *refInfinitePool) Stats() PoolStats { return p.stats }
