// Package core implements the paper's primary contribution: the Dead-Value
// Pool (DVP). The pool buffers the 16-byte hashes of recently invalidated
// ("garbage", or zombie) pages together with the physical pages that still
// hold those bytes, so an incoming write with matching content can be
// short-circuited — the zombie page is flipped back to valid and only
// mapping tables change, saving the flash program entirely.
//
// Three replacement policies are provided:
//
//   - MQPool — the paper's Multi-Queue design (Section IV): multiple LRU
//     queues indexed by popularity degree, logarithmic promotion,
//     expiration-driven demotion, and an aging clock measured in writes.
//   - NewLRUPool — the single-queue strawman of Section III/Fig 5–6: an
//     MQPool with one queue, which is exactly LRU.
//   - InfinitePool — the unbounded "Ideal" configuration.
//
// All pools are clocked in *write counts*, as in the paper: the i-th write
// request has timestamp i.
package core

import (
	"fmt"

	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// Tick is the pool's logical clock: the number of write requests issued so
// far (the paper's "relative timestamp").
type Tick = int64

// Pool is a dead-value pool: an index from content hash to the garbage
// physical pages still holding that content.
//
// Lifecycle per the paper (Section IV-C):
//
//   - Insert is called when a page is invalidated (an update turns it into
//     garbage): the page's hash and PPN enter the pool.
//   - Lookup is called for each incoming write: on a hit one garbage PPN is
//     removed from the entry and returned so the FTL can revive it.
//   - Drop is called when GC erases a page that was in the pool.
type Pool interface {
	// Insert records that ppn has become a garbage copy of value h at
	// write-clock now. It may evict older entries to make room. ppn must
	// not be pooled already: the FTL invalidates a page once, and it
	// returns to the pool only after a revival, Drop or eviction took it
	// out.
	Insert(h trace.Hash, ppn ssd.PPN, now Tick)

	// Lookup searches for a garbage copy of h. On a hit, one PPN is
	// removed from the pool and returned for revival.
	Lookup(h trace.Hash, now Tick) (ssd.PPN, bool)

	// Drop removes ppn from the pool, if present (the page was erased by
	// GC or otherwise reclaimed).
	Drop(ppn ssd.PPN)

	// GarbagePopularity returns the popularity degree of the pool entry
	// holding ppn, and whether ppn is pooled at all. The popularity-aware
	// GC victim selector uses this to avoid erasing popular zombies.
	GarbagePopularity(ppn ssd.PPN) (uint8, bool)

	// Len returns the number of pooled garbage pages (PPNs, not entries).
	Len() int

	// Stats returns cumulative counters.
	Stats() PoolStats
}

// PoolStats counts pool events.
type PoolStats struct {
	Inserts   int64 // garbage pages inserted
	Hits      int64 // lookups that revived a page
	Misses    int64 // lookups that found nothing
	Evictions int64 // pages evicted for capacity
	Drops     int64 // pages removed because GC erased them
	Promoted  int64 // MQ promotions
	Demoted   int64 // MQ expiration demotions
}

// HitRate returns Hits / (Hits + Misses), or 0 when no lookups happened.
func (s PoolStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the counters compactly.
func (s PoolStats) String() string {
	return fmt.Sprintf("inserts=%d hits=%d misses=%d (%.1f%%) evict=%d drop=%d promo=%d demo=%d",
		s.Inserts, s.Hits, s.Misses, s.HitRate()*100, s.Evictions, s.Drops, s.Promoted, s.Demoted)
}

// MaxPopularity is the saturation point of popularity counters — the paper
// dedicates one byte per LPN-table entry to popularity, so degrees cap at
// 255.
const MaxPopularity = ^uint8(0)

// Ledger tracks the popularity degree (write count) of every value, the
// counterpart of the paper's 1-byte popularity field in the LPN-to-PPN
// table: it survives pool evictions so a value re-entering the pool starts
// from its true degree. Counters saturate at MaxPopularity.
type Ledger struct {
	pop map[trace.Hash]uint8
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{pop: make(map[trace.Hash]uint8)}
}

// Bump increments h's popularity (saturating) and returns the new degree.
// Call it once per write of h, regardless of pool state.
func (l *Ledger) Bump(h trace.Hash) uint8 {
	p := l.pop[h]
	if p < MaxPopularity {
		p++
		l.pop[h] = p
	}
	return p
}

// Get returns h's current popularity degree.
func (l *Ledger) Get(h trace.Hash) uint8 { return l.pop[h] }

// Len returns the number of values tracked.
func (l *Ledger) Len() int { return len(l.pop) }
