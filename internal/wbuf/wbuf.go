// Package wbuf implements a DRAM write-back buffer in the spirit of BPLRU
// (Kim & Ahn, FAST'08 — the paper's reference [7]): host writes are
// acknowledged from RAM and only reach flash when evicted, so rapid
// overwrites of the same logical page coalesce and never cost a program.
//
// The paper's Section VII argues that such "software approaches such as
// aggressive caching ... cannot completely remove duplicate disk writes",
// so the dead-value pool stays useful behind a buffer; internal/sim wires
// this package in front of any device to test exactly that claim.
package wbuf

import (
	"fmt"

	"zombiessd/internal/ftl"
	"zombiessd/internal/trace"
)

// node is one buffered dirty page in the intrusive LRU list.
type node struct {
	lpn        ftl.LPN
	hash       trace.Hash
	prev, next *node
}

// Buffer is a fixed-capacity write-back buffer of dirty logical pages.
// The zero value is not usable; construct with New.
type Buffer struct {
	capacity int
	pages    map[ftl.LPN]*node
	head     *node // LRU end
	tail     *node // MRU end

	stats Stats
}

// Stats counts buffer activity.
type Stats struct {
	Puts      int64 // host writes entering the buffer
	Coalesced int64 // writes absorbed by an already-buffered page
	Evictions int64 // dirty pages pushed to flash
	ReadHits  int64 // reads served from the buffer
}

// String renders the counters.
func (s Stats) String() string {
	return fmt.Sprintf("puts=%d coalesced=%d evictions=%d readHits=%d",
		s.Puts, s.Coalesced, s.Evictions, s.ReadHits)
}

// New returns a Buffer holding at most capacity dirty pages.
func New(capacity int) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("wbuf: capacity must be positive, got %d", capacity)
	}
	return &Buffer{
		capacity: capacity,
		pages:    make(map[ftl.LPN]*node, capacity),
	}, nil
}

// Len returns the number of buffered dirty pages.
func (b *Buffer) Len() int { return len(b.pages) }

// Stats returns cumulative counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Put buffers a write of h to lpn. When the buffer is full, the least
// recently written dirty page is evicted and returned for flushing.
func (b *Buffer) Put(lpn ftl.LPN, h trace.Hash) (evictLPN ftl.LPN, evictHash trace.Hash, evicted bool) {
	b.stats.Puts++
	if n, ok := b.pages[lpn]; ok {
		// Overwrite coalesces in RAM: the older content never reaches
		// flash at all.
		b.stats.Coalesced++
		n.hash = h
		b.moveToTail(n)
		return 0, trace.Hash{}, false
	}
	n := &node{lpn: lpn, hash: h}
	b.pages[lpn] = n
	b.pushTail(n)
	if len(b.pages) <= b.capacity {
		return 0, trace.Hash{}, false
	}
	victim := b.head
	b.remove(victim)
	delete(b.pages, victim.lpn)
	b.stats.Evictions++
	return victim.lpn, victim.hash, true
}

// Get returns the buffered content of lpn, if dirty in the buffer, and
// counts the read hit. Reads do not change eviction order (the buffer
// orders by write recency, as BPLRU's block-level padding concerns writes).
func (b *Buffer) Get(lpn ftl.LPN) (trace.Hash, bool) {
	h, ok := b.Peek(lpn)
	if ok {
		b.stats.ReadHits++
	}
	return h, ok
}

// Peek is Get without the read-hit count, for probes that are not host
// reads.
func (b *Buffer) Peek(lpn ftl.LPN) (trace.Hash, bool) {
	n, ok := b.pages[lpn]
	if !ok {
		return trace.Hash{}, false
	}
	return n.hash, true
}

// Drain removes and returns every dirty page, LRU first, for shutdown-style
// flushing.
func (b *Buffer) Drain() []struct {
	LPN  ftl.LPN
	Hash trace.Hash
} {
	out := make([]struct {
		LPN  ftl.LPN
		Hash trace.Hash
	}, 0, len(b.pages))
	for n := b.head; n != nil; n = n.next {
		out = append(out, struct {
			LPN  ftl.LPN
			Hash trace.Hash
		}{n.lpn, n.hash})
	}
	b.pages = make(map[ftl.LPN]*node, b.capacity)
	b.head, b.tail = nil, nil
	return out
}

func (b *Buffer) pushTail(n *node) {
	n.prev, n.next = b.tail, nil
	if b.tail != nil {
		b.tail.next = n
	} else {
		b.head = n
	}
	b.tail = n
}

func (b *Buffer) remove(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (b *Buffer) moveToTail(n *node) {
	if b.tail == n {
		return
	}
	b.remove(n)
	b.pushTail(n)
}
