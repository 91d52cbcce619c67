// Package dedup implements a CAFTL-style device-level deduplicating
// mapping layer (the paper's "Dedup" comparison system, Section VII): a
// content index from value hash to the single live physical page holding
// that value, plus a many-to-one LPN mapping — multiple logical pages may
// point at one physical page. A physical page only becomes garbage when its
// last logical owner leaves, which is exactly the moment the dead-value
// pool takes over in the combined DVP+Dedup system.
package dedup

import (
	"errors"
	"fmt"

	"zombiessd/internal/ftl"
	"zombiessd/internal/sparse"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// ErrDedupCorrupt is wrapped by mapping operations that discover the
// metadata is internally inconsistent — an index entry without page
// metadata, a bind onto a non-live page, or a duplicate live value. A
// degraded device must surface these as errors, never panics: the caller
// treats the mapping unit as corrupt and fails the run (or the cell)
// cleanly.
var ErrDedupCorrupt = errors.New("dedup: metadata corrupt")

// pageMeta describes one deduplicated physical page. Its logical owners
// form an intrusive doubly linked list threaded through the Mapper's
// per-LPN links: every LPN owns at most one live page, so a removal is
// O(1) and the list keeps the order owners were bound in. A page with no
// owners (n == 0, the zero value) is not live.
type pageMeta struct {
	hash       trace.Hash
	head, tail ftl.LPN // first and last owner; head is the OOB representative
	n          int32   // number of owners, the reference count
}

// link is one LPN's position in its page's owner list. An LPN on no list
// (or alone on one) has both links InvalidLPN, the sparse default, so only
// pages with several owners materialize link chunks.
type link struct {
	prev, next ftl.LPN
}

var noLink = link{prev: ftl.InvalidLPN, next: ftl.InvalidLPN}

// Mapper is the deduplicating mapping unit. The forward table, the owner
// links and the per-page metadata are sparse-chunked arrays, so a
// full-geometry drive costs RAM proportional to the pages actually
// written, not the address-space size.
type Mapper struct {
	l2p    *sparse.Array[ssd.PPN]
	links  *sparse.Array[link]
	pages  *sparse.Array[pageMeta] // by PPN
	live   int                     // pages with at least one owner
	byHash map[trace.Hash]ssd.PPN

	stats Stats
}

// Stats counts deduplication events.
type Stats struct {
	DedupHits  int64 // writes absorbed by an existing live copy
	NewPages   int64 // writes that created a live page (program or revival)
	Unbinds    int64 // logical detachments
	GarbageOut int64 // physical pages that lost their last owner
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("dedupHits=%d newPages=%d unbinds=%d garbage=%d",
		s.DedupHits, s.NewPages, s.Unbinds, s.GarbageOut)
}

// NewMapper returns a Mapper for logicalPages host pages over a drive of
// physicalPages pages.
func NewMapper(logicalPages, physicalPages int64) (*Mapper, error) {
	if logicalPages <= 0 {
		return nil, fmt.Errorf("dedup: logical pages must be positive, got %d", logicalPages)
	}
	if logicalPages > int64(ftl.InvalidLPN) {
		return nil, fmt.Errorf("dedup: %d logical pages exceeds the LPN space", logicalPages)
	}
	if physicalPages <= 0 {
		return nil, fmt.Errorf("dedup: physical pages must be positive, got %d", physicalPages)
	}
	if physicalPages > int64(ssd.InvalidPPN) {
		return nil, fmt.Errorf("dedup: %d physical pages exceeds the PPN space", physicalPages)
	}
	return &Mapper{
		l2p:    sparse.New(logicalPages, ssd.InvalidPPN),
		links:  sparse.New(logicalPages, noLink),
		pages:  sparse.New(physicalPages, pageMeta{}),
		byHash: make(map[trace.Hash]ssd.PPN),
	}, nil
}

// page returns ppn's metadata and whether the page is live. A PPN outside
// the drive is never live.
func (m *Mapper) page(ppn ssd.PPN) (pageMeta, bool) {
	if int64(ppn) >= m.pages.Len() {
		return pageMeta{}, false
	}
	meta := m.pages.Get(int64(ppn))
	return meta, meta.n > 0
}

// LogicalPages returns the host-visible address-space size.
func (m *Mapper) LogicalPages() int64 { return m.l2p.Len() }

// Stats returns cumulative counters.
func (m *Mapper) Stats() Stats { return m.stats }

// Lookup returns the physical page backing lpn.
func (m *Mapper) Lookup(lpn ftl.LPN) (ssd.PPN, bool) {
	p := m.l2p.Get(int64(lpn))
	return p, p != ssd.InvalidPPN
}

// LiveValue returns the live physical page holding value h, if any — the
// dedup fast path for incoming writes.
func (m *Mapper) LiveValue(h trace.Hash) (ssd.PPN, bool) {
	p, ok := m.byHash[h]
	return p, ok
}

// RefCount returns the number of logical owners of ppn (0 when not live).
func (m *Mapper) RefCount(ppn ssd.PPN) int {
	meta, _ := m.page(ppn)
	return int(meta.n)
}

// ValueOf returns the hash stored at live page ppn.
func (m *Mapper) ValueOf(ppn ssd.PPN) (trace.Hash, bool) {
	meta, ok := m.page(ppn)
	if !ok {
		return trace.Hash{}, false
	}
	return meta.hash, true
}

// Unbind detaches lpn from its current physical page. If the page loses its
// last owner it becomes garbage: Unbind returns its PPN and hash with
// garbage=true so the caller can invalidate it in the store and offer it to
// the dead-value pool. With remaining owners, garbage is false and the page
// stays live. An index entry whose page has no metadata reports
// ErrDedupCorrupt with the mapping untouched.
func (m *Mapper) Unbind(lpn ftl.LPN) (ppn ssd.PPN, h trace.Hash, garbage, wasBound bool, err error) {
	ppn = m.l2p.Get(int64(lpn))
	if ppn == ssd.InvalidPPN {
		return ssd.InvalidPPN, trace.Hash{}, false, false, nil
	}
	meta, ok := m.page(ppn)
	if !ok {
		return ssd.InvalidPPN, trace.Hash{}, false, false,
			fmt.Errorf("%w: LPN %d maps to %d which has no metadata", ErrDedupCorrupt, lpn, ppn)
	}
	m.stats.Unbinds++
	m.l2p.Set(int64(lpn), ssd.InvalidPPN)
	if meta.n > 1 {
		m.unlink(&meta, lpn)
		m.pages.Set(int64(ppn), meta)
		return ppn, meta.hash, false, true, nil
	}
	// Last owner gone: the page turns into garbage and leaves the live
	// content index.
	m.stats.GarbageOut++
	h = meta.hash
	m.pages.Set(int64(ppn), pageMeta{})
	m.live--
	delete(m.byHash, h)
	return ppn, h, true, true, nil
}

// unlink removes lpn from meta's owner list, which holds at least one
// other owner, and resets lpn's links to the default.
func (m *Mapper) unlink(meta *pageMeta, lpn ftl.LPN) {
	l := m.links.Get(int64(lpn))
	if l.prev != ftl.InvalidLPN {
		p := m.links.Get(int64(l.prev))
		p.next = l.next
		m.links.Set(int64(l.prev), p)
	} else {
		meta.head = l.next
	}
	if l.next != ftl.InvalidLPN {
		n := m.links.Get(int64(l.next))
		n.prev = l.prev
		m.links.Set(int64(l.next), n)
	} else {
		meta.tail = l.prev
	}
	m.links.Set(int64(lpn), noLink)
	meta.n--
}

// BindExisting points lpn at the live page ppn (a dedup hit): the reference
// count grows, no flash operation happens. Binding onto a page that is not
// live reports ErrDedupCorrupt with the mapping untouched.
func (m *Mapper) BindExisting(lpn ftl.LPN, ppn ssd.PPN) error {
	meta, ok := m.page(ppn)
	if !ok {
		return fmt.Errorf("%w: BindExisting(%d, %d): page not live", ErrDedupCorrupt, lpn, ppn)
	}
	if err := m.checkUnbound(lpn); err != nil {
		return err
	}
	m.stats.DedupHits++
	m.links.Set(int64(lpn), link{prev: meta.tail, next: ftl.InvalidLPN})
	t := m.links.Get(int64(meta.tail))
	t.next = lpn
	m.links.Set(int64(meta.tail), t)
	meta.tail = lpn
	meta.n++
	m.pages.Set(int64(ppn), meta)
	m.l2p.Set(int64(lpn), ppn)
	return nil
}

// checkUnbound reports ErrDedupCorrupt when lpn is still bound: an LPN
// sits on at most one owner list, and binding it twice would corrupt the
// links it shares with its old page's owners.
func (m *Mapper) checkUnbound(lpn ftl.LPN) error {
	if old := m.l2p.Get(int64(lpn)); old != ssd.InvalidPPN {
		return fmt.Errorf("%w: LPN %d is still bound to %d", ErrDedupCorrupt, lpn, old)
	}
	return nil
}

// BindNew registers ppn as the fresh live copy of value h owned by lpn —
// used both after a flash program and after a dead-value-pool revival. A
// value that already has a live copy (the caller should have used
// BindExisting), a page that is already live or a page outside the drive
// reports ErrDedupCorrupt with the mapping untouched.
func (m *Mapper) BindNew(lpn ftl.LPN, ppn ssd.PPN, h trace.Hash) error {
	if _, dup := m.byHash[h]; dup {
		return fmt.Errorf("%w: BindNew(%d): value already live", ErrDedupCorrupt, ppn)
	}
	if int64(ppn) >= m.pages.Len() {
		return fmt.Errorf("%w: BindNew(%d): page outside the %d physical pages",
			ErrDedupCorrupt, ppn, m.pages.Len())
	}
	if _, dup := m.page(ppn); dup {
		return fmt.Errorf("%w: BindNew(%d): page already live", ErrDedupCorrupt, ppn)
	}
	if err := m.checkUnbound(lpn); err != nil {
		return err
	}
	m.stats.NewPages++
	m.pages.Set(int64(ppn), pageMeta{hash: h, head: lpn, tail: lpn, n: 1})
	m.live++
	m.byHash[h] = ppn
	m.l2p.Set(int64(lpn), ppn)
	return nil
}

// FirstOwner returns the first logical owner of live page ppn: the page's
// OOB representative for crash recovery. The rest are journaled
// separately and follow in bind order through NextOwner.
func (m *Mapper) FirstOwner(ppn ssd.PPN) (ftl.LPN, bool) {
	meta, ok := m.page(ppn)
	if !ok {
		return ftl.InvalidLPN, false
	}
	return meta.head, true
}

// NextOwner returns the owner after lpn on its page's owner list, with
// false when lpn is the last owner or not bound.
func (m *Mapper) NextOwner(lpn ftl.LPN) (ftl.LPN, bool) {
	next := m.links.Get(int64(lpn)).next
	return next, next != ftl.InvalidLPN
}

// Relocate rebinds every owner of src to dst; GC calls it when it moves a
// valid page. Unknown pages are ignored (the moved page may belong to a
// different mapping layer in mixed setups). The owner list moves with the
// page, order unchanged.
func (m *Mapper) Relocate(src, dst ssd.PPN) {
	meta, ok := m.page(src)
	if !ok {
		return
	}
	m.pages.Set(int64(src), pageMeta{})
	m.pages.Set(int64(dst), meta)
	m.byHash[meta.hash] = dst
	for lpn, ok := meta.head, true; ok; lpn, ok = m.NextOwner(lpn) {
		m.l2p.Set(int64(lpn), dst)
	}
}

// LivePages returns the number of live (deduplicated) physical pages.
func (m *Mapper) LivePages() int { return m.live }
