package dedup

// The pre-intrusive-list Mapper, kept verbatim (types renamed) as the
// reference model that TestMapperMatchesReference and FuzzMapperOps drive
// in lockstep with the Mapper. Owners live in a per-page slice that a
// removal scans; order is bind order, as in the Mapper.

import (
	"fmt"

	"zombiessd/internal/ftl"
	"zombiessd/internal/sparse"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// refPageMeta describes one live deduplicated physical page.
type refPageMeta struct {
	hash trace.Hash
	lpns []ftl.LPN // logical owners; len(lpns) is the reference count
}

// refMapper is the deduplicating mapping unit. The forward table is
// sparse-chunked so a full-geometry logical space costs RAM proportional
// to the pages actually written, not the address-space size.
type refMapper struct {
	l2p    *sparse.Array[ssd.PPN]
	pages  map[ssd.PPN]*refPageMeta
	byHash map[trace.Hash]ssd.PPN

	stats Stats
}

// newRefMapper returns a Mapper for logicalPages host pages.
func newRefMapper(logicalPages int64) (*refMapper, error) {
	if logicalPages <= 0 {
		return nil, fmt.Errorf("dedup: logical pages must be positive, got %d", logicalPages)
	}
	if logicalPages > int64(ftl.InvalidLPN) {
		return nil, fmt.Errorf("dedup: %d logical pages exceeds the LPN space", logicalPages)
	}
	return &refMapper{
		l2p:    sparse.New(logicalPages, ssd.InvalidPPN),
		pages:  make(map[ssd.PPN]*refPageMeta),
		byHash: make(map[trace.Hash]ssd.PPN),
	}, nil
}

// LogicalPages returns the host-visible address-space size.
func (m *refMapper) LogicalPages() int64 { return m.l2p.Len() }

// Stats returns cumulative counters.
func (m *refMapper) Stats() Stats { return m.stats }

// Lookup returns the physical page backing lpn.
func (m *refMapper) Lookup(lpn ftl.LPN) (ssd.PPN, bool) {
	p := m.l2p.Get(int64(lpn))
	return p, p != ssd.InvalidPPN
}

// LiveValue returns the live physical page holding value h, if any — the
// dedup fast path for incoming writes.
func (m *refMapper) LiveValue(h trace.Hash) (ssd.PPN, bool) {
	p, ok := m.byHash[h]
	return p, ok
}

// RefCount returns the number of logical owners of ppn (0 when not live).
func (m *refMapper) RefCount(ppn ssd.PPN) int {
	meta, ok := m.pages[ppn]
	if !ok {
		return 0
	}
	return len(meta.lpns)
}

// ValueOf returns the hash stored at live page ppn.
func (m *refMapper) ValueOf(ppn ssd.PPN) (trace.Hash, bool) {
	meta, ok := m.pages[ppn]
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
func (m *refMapper) Unbind(lpn ftl.LPN) (ppn ssd.PPN, h trace.Hash, garbage, wasBound bool, err error) {
	ppn = m.l2p.Get(int64(lpn))
	if ppn == ssd.InvalidPPN {
		return ssd.InvalidPPN, trace.Hash{}, false, false, nil
	}
	meta := m.pages[ppn]
	if meta == nil {
		return ssd.InvalidPPN, trace.Hash{}, false, false,
			fmt.Errorf("%w: LPN %d maps to %d which has no metadata", ErrDedupCorrupt, lpn, ppn)
	}
	m.stats.Unbinds++
	m.l2p.Set(int64(lpn), ssd.InvalidPPN)
	for i, l := range meta.lpns {
		if l == lpn {
			meta.lpns = append(meta.lpns[:i], meta.lpns[i+1:]...)
			break
		}
	}
	if len(meta.lpns) > 0 {
		return ppn, meta.hash, false, true, nil
	}
	// Last owner gone: the page turns into garbage and leaves the live
	// content index.
	m.stats.GarbageOut++
	h = meta.hash
	delete(m.pages, ppn)
	delete(m.byHash, h)
	return ppn, h, true, true, nil
}

// BindExisting points lpn at the live page ppn (a dedup hit): the reference
// count grows, no flash operation happens. Binding onto a page that is not
// live reports ErrDedupCorrupt with the mapping untouched.
func (m *refMapper) BindExisting(lpn ftl.LPN, ppn ssd.PPN) error {
	meta, ok := m.pages[ppn]
	if !ok {
		return fmt.Errorf("%w: BindExisting(%d, %d): page not live", ErrDedupCorrupt, lpn, ppn)
	}
	m.stats.DedupHits++
	meta.lpns = append(meta.lpns, lpn)
	m.l2p.Set(int64(lpn), ppn)
	return nil
}

// BindNew registers ppn as the fresh live copy of value h owned by lpn —
// used both after a flash program and after a dead-value-pool revival. A
// value that already has a live copy (the caller should have used
// BindExisting) or a page that is already live reports ErrDedupCorrupt
// with the mapping untouched.
func (m *refMapper) BindNew(lpn ftl.LPN, ppn ssd.PPN, h trace.Hash) error {
	if _, dup := m.byHash[h]; dup {
		return fmt.Errorf("%w: BindNew(%d): value already live", ErrDedupCorrupt, ppn)
	}
	if _, dup := m.pages[ppn]; dup {
		return fmt.Errorf("%w: BindNew(%d): page already live", ErrDedupCorrupt, ppn)
	}
	m.stats.NewPages++
	m.pages[ppn] = &refPageMeta{hash: h, lpns: []ftl.LPN{lpn}}
	m.byHash[h] = ppn
	m.l2p.Set(int64(lpn), ppn)
	return nil
}

// Owners returns a copy of the logical owners of live page ppn (nil when
// the page is not live). The first owner is the page's OOB representative
// for crash recovery; the rest are journaled separately.
func (m *refMapper) Owners(ppn ssd.PPN) []ftl.LPN {
	meta, ok := m.pages[ppn]
	if !ok {
		return nil
	}
	out := make([]ftl.LPN, len(meta.lpns))
	copy(out, meta.lpns)
	return out
}

// Relocate rebinds every owner of src to dst; GC calls it when it moves a
// valid page. Unknown pages are ignored (the moved page may belong to a
// different mapping layer in mixed setups).
func (m *refMapper) Relocate(src, dst ssd.PPN) {
	meta, ok := m.pages[src]
	if !ok {
		return
	}
	delete(m.pages, src)
	m.pages[dst] = meta
	m.byHash[meta.hash] = dst
	for _, lpn := range meta.lpns {
		m.l2p.Set(int64(lpn), dst)
	}
}

// LivePages returns the number of live (deduplicated) physical pages.
func (m *refMapper) LivePages() int { return len(m.pages) }
