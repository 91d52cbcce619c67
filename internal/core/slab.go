package core

import (
	"zombiessd/internal/sparse"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// nilSlot is the null entry index.
const nilSlot int32 = -1

// entry is one dead-value pool record: a value hash, the garbage physical
// pages currently holding that value, its popularity degree, and — for MQ —
// its queue index and expiration time (Fig 8 of the paper). Entries live
// in a slab and link to their queue neighbours by slab index.
type entry struct {
	hash   trace.Hash
	pages  pageList
	expire Tick
	queue  int32
	pop    uint8

	prev, next int32 // queue links; next also threads the free list
}

// slab stores pool entries and recycles freed slots LIFO, so a pool warmed
// to capacity allocates nothing.
type slab struct {
	entries []entry
	free    int32 // head of the free-slot list
}

func newSlab() slab { return slab{free: nilSlot} }

// alloc returns a free slot, which the caller overwrites. With limit > 0
// the slab never grows its backing array past limit slots, so a pool
// sized for its capacity wastes no slack; limit ≤ 0 grows it like append.
func (s *slab) alloc(limit int) int32 {
	if i := s.free; i != nilSlot {
		s.free = s.entries[i].next
		return i
	}
	if n := len(s.entries); n == cap(s.entries) && limit > 0 {
		grown := make([]entry, n, max(min(max(2*n, 64), limit), n+1))
		copy(grown, s.entries)
		s.entries = grown
	}
	s.entries = append(s.entries, entry{})
	return int32(len(s.entries) - 1)
}

// release returns slot i to the free list.
func (s *slab) release(i int32) {
	s.entries[i].next = s.free
	s.free = i
}

// queue is an intrusive LRU list of slab entries: head is least recently
// used, tail is most recently used.
type queue struct {
	head, tail int32
	n          int
}

var emptyQueue = queue{head: nilSlot, tail: nilSlot}

func (s *slab) pushTail(q *queue, i int32) {
	e := &s.entries[i]
	e.prev, e.next = q.tail, nilSlot
	if q.tail != nilSlot {
		s.entries[q.tail].next = i
	} else {
		q.head = i
	}
	q.tail = i
	q.n++
}

func (s *slab) remove(q *queue, i int32) {
	e := &s.entries[i]
	if e.prev != nilSlot {
		s.entries[e.prev].next = e.next
	} else {
		q.head = e.next
	}
	if e.next != nilSlot {
		s.entries[e.next].prev = e.prev
	} else {
		q.tail = e.prev
	}
	e.prev, e.next = nilSlot, nilSlot
	q.n--
}

func (s *slab) moveToTail(q *queue, i int32) {
	if q.tail == i {
		return
	}
	s.remove(q, i)
	s.pushTail(q, i)
}

// pageNode is one pooled garbage page's place in its entry's page list.
type pageNode struct {
	slot       int32   // owning entry, nilSlot when the page is not pooled
	prev, next ssd.PPN // neighbours in death order, InvalidPPN at the ends
}

var unpooled = pageNode{slot: nilSlot, prev: ssd.InvalidPPN, next: ssd.InvalidPPN}

// pageList is one entry's garbage pages, oldest death at the head.
type pageList struct {
	head, tail ssd.PPN
	n          int32
}

var emptyPages = pageList{head: ssd.InvalidPPN, tail: ssd.InvalidPPN}

// pageIndex threads every entry's page list through one sparse array
// indexed by PPN, so finding, unlinking and scoring a pooled page are O(1)
// array reads. The array grows on demand: pools are also driven by replays
// that number pages without a drive geometry.
type pageIndex struct {
	nodes *sparse.Array[pageNode]
	n     int // pooled pages over all lists
}

func newPageIndex() pageIndex { return pageIndex{nodes: sparse.New(0, unpooled)} }

// slotOf returns the entry holding ppn, or nilSlot when ppn is not pooled.
func (x *pageIndex) slotOf(ppn ssd.PPN) int32 {
	if int64(ppn) >= x.nodes.Len() {
		return nilSlot
	}
	return x.nodes.Get(int64(ppn)).slot
}

// push appends ppn, which must not be pooled, to the tail of slot's list l.
func (x *pageIndex) push(l *pageList, slot int32, ppn ssd.PPN) {
	if i := int64(ppn); i >= x.nodes.Len() {
		x.nodes.Grow(i + 1)
	}
	x.nodes.Set(int64(ppn), pageNode{slot: slot, prev: l.tail, next: ssd.InvalidPPN})
	if l.tail != ssd.InvalidPPN {
		t := x.nodes.Get(int64(l.tail))
		t.next = ppn
		x.nodes.Set(int64(l.tail), t)
	} else {
		l.head = ppn
	}
	l.tail = ppn
	l.n++
	x.n++
}

// unlink removes the pooled page ppn from its list l.
func (x *pageIndex) unlink(l *pageList, ppn ssd.PPN) {
	nd := x.nodes.Get(int64(ppn))
	if nd.prev != ssd.InvalidPPN {
		p := x.nodes.Get(int64(nd.prev))
		p.next = nd.next
		x.nodes.Set(int64(nd.prev), p)
	} else {
		l.head = nd.next
	}
	if nd.next != ssd.InvalidPPN {
		n := x.nodes.Get(int64(nd.next))
		n.prev = nd.prev
		x.nodes.Set(int64(nd.next), n)
	} else {
		l.tail = nd.prev
	}
	x.nodes.Set(int64(ppn), unpooled)
	l.n--
	x.n--
}

// clear unpools every page on l and empties it.
func (x *pageIndex) clear(l *pageList) {
	for p := l.head; p != ssd.InvalidPPN; {
		next := x.nodes.Get(int64(p)).next
		x.nodes.Set(int64(p), unpooled)
		p = next
	}
	x.n -= int(l.n)
	*l = emptyPages
}
