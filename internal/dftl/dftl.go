// Package dftl implements the RAM side of a flash-resident page-mapping
// table in the style of DFTL (Gupta et al.) as analyzed by Dayan & Bonnet
// ("Garbage Collection Techniques for Flash-Resident Page-Mapping FTLs"):
// the logical-to-physical mapping is split into translation pages of
// EntriesPerPage(pageSize) entries each, the full set lives on flash, and
// only a bounded cache of translation-page frames — the cached mapping
// table (CMT) — is resident in controller RAM, managed LRU with dirty
// write-back.
//
// This package owns the pure bookkeeping: the CMT frames, the global
// translation directory (GTD, the TVPN → flash-location array), and the
// modeled content of flash-resident translation pages. Every flash
// consequence — programming a translation page on the translation stream,
// reading one on a CMT miss, invalidating the stale copy, collecting
// translation blocks as a second GC stream — lives in internal/ftl, which
// calls back into the CMT to keep the model consistent. The split keeps
// this package import-light (ssd only) so ftl can depend on it.
package dftl

import (
	"errors"
	"fmt"

	"zombiessd/internal/ssd"
)

// Named configuration errors, so the -dftl-* flag surface (and
// FuzzDftlConfig) can assert the exact rejection class with errors.Is.
var (
	// ErrBadFrames rejects invalid -dftl-cmt-frames values.
	ErrBadFrames = errors.New("dftl: bad -dftl-cmt-frames")
	// ErrDisabled rejects -dftl-* knobs set without -dftl-enable.
	ErrDisabled = errors.New("dftl: knob needs -dftl-enable")
)

// DefaultCMTFrames is the resident translation-page frame count
// WithDefaults picks when DFTL is enabled with no explicit size: 64
// frames × 4 KB translation pages = 256 KB of mapping cache.
const DefaultCMTFrames = 64

// maxCMTFrames bounds -dftl-cmt-frames: a frame is one translation page
// of RAM, and 2^20 of them is already a 4 GB cache — past any plausible
// controller.
const maxCMTFrames = 1 << 20

// Config parameterizes the flash-resident mapping table. The zero value
// disables it entirely: no CMT is built, no translation stream is
// allocated, and the store's behaviour is bit-identical to a RAM-resident
// mapping.
type Config struct {
	// Enable turns the flash-resident mapping on.
	Enable bool

	// CMTFrames is the number of translation-page frames held resident in
	// RAM (the CMT capacity). 0 means DefaultCMTFrames when enabled;
	// setting it without Enable is a configuration error.
	CMTFrames int

	// BatchEvict enables Dayan & Bonnet's batched eviction: when
	// translation GC relocates a translation page whose frame is resident
	// and dirty, the in-RAM updates are folded into the relocation program
	// and the frame comes back clean — one flash program instead of a
	// relocation now plus a write-back later.
	BatchEvict bool
}

// Enabled reports whether the flash-resident mapping is on.
func (c Config) Enabled() bool { return c.Enable }

// Validate rejects malformed configurations with the named errors above.
func (c Config) Validate() error {
	if c.CMTFrames < 0 || c.CMTFrames > maxCMTFrames {
		return fmt.Errorf("%w: frame count must be in [0,%d], got %d", ErrBadFrames, maxCMTFrames, c.CMTFrames)
	}
	if !c.Enable {
		if c.CMTFrames != 0 {
			return fmt.Errorf("%w: -dftl-cmt-frames %d without -dftl-enable", ErrDisabled, c.CMTFrames)
		}
		if c.BatchEvict {
			return fmt.Errorf("%w: -dftl-batch-evict without -dftl-enable", ErrDisabled)
		}
	}
	return nil
}

// WithDefaults returns c with the enabled-but-unset knobs filled in: the
// default CMT capacity. The disabled zero value passes through unchanged.
func (c Config) WithDefaults() Config {
	if c.Enable && c.CMTFrames == 0 {
		c.CMTFrames = DefaultCMTFrames
	}
	return c
}

// EntriesPerPage returns how many 4-byte PPN entries one translation page
// of the given page size holds — the fan-out that maps LPNs to TVPNs.
func EntriesPerPage(pageSize int) int { return pageSize / 4 }

// Stats counts the mapping table's activity. Flash-op counters here are
// bookkeeping mirrors of real bus operations the store charged.
type Stats struct {
	// Hits and Misses classify CMT lookups (MapRead + MapWrite demand).
	Hits   int64
	Misses int64
	// Fills counts translation-page reads that loaded a frame on a miss
	// (a miss of a never-written TVPN installs an empty frame for free).
	Fills int64
	// Writebacks counts dirty frames written back to flash on eviction.
	Writebacks int64
	// BatchFolded counts dirty frames folded into a translation-GC
	// relocation under BatchEvict — write-backs that never happened.
	BatchFolded int64
	// TransPrograms / TransReads / TransErased count flash ops on
	// translation pages and blocks (programs include write-backs, GC
	// relocations and recovery checkpoints).
	TransPrograms int64
	TransReads    int64
	TransErased   int64
	// TransGCRuns / TransRelocated count translation-block GC cycles and
	// the still-valid translation pages they moved.
	TransGCRuns    int64
	TransRelocated int64
	// GCDirtied counts data-GC mapping updates absorbed by a resident
	// frame (deferred to its eventual write-back); GCMapRMWs counts the
	// update batches that had to read-modify-write a non-resident
	// translation page right away.
	GCDirtied int64
	GCMapRMWs int64
	// CheckpointPages counts translation pages re-landed by crash
	// recovery's fresh mapping checkpoint.
	CheckpointPages int64
}

// Sub returns s - base, field by field — the per-run delta DeviceMetrics
// arithmetic needs.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Hits:            s.Hits - base.Hits,
		Misses:          s.Misses - base.Misses,
		Fills:           s.Fills - base.Fills,
		Writebacks:      s.Writebacks - base.Writebacks,
		BatchFolded:     s.BatchFolded - base.BatchFolded,
		TransPrograms:   s.TransPrograms - base.TransPrograms,
		TransReads:      s.TransReads - base.TransReads,
		TransErased:     s.TransErased - base.TransErased,
		TransGCRuns:     s.TransGCRuns - base.TransGCRuns,
		TransRelocated:  s.TransRelocated - base.TransRelocated,
		GCDirtied:       s.GCDirtied - base.GCDirtied,
		GCMapRMWs:       s.GCMapRMWs - base.GCMapRMWs,
		CheckpointPages: s.CheckpointPages - base.CheckpointPages,
	}
}

// Add returns s + d, field by field — the per-tenant accumulation
// DeviceMetrics arithmetic needs.
func (s Stats) Add(d Stats) Stats {
	return Stats{
		Hits:            s.Hits + d.Hits,
		Misses:          s.Misses + d.Misses,
		Fills:           s.Fills + d.Fills,
		Writebacks:      s.Writebacks + d.Writebacks,
		BatchFolded:     s.BatchFolded + d.BatchFolded,
		TransPrograms:   s.TransPrograms + d.TransPrograms,
		TransReads:      s.TransReads + d.TransReads,
		TransErased:     s.TransErased + d.TransErased,
		TransGCRuns:     s.TransGCRuns + d.TransGCRuns,
		TransRelocated:  s.TransRelocated + d.TransRelocated,
		GCDirtied:       s.GCDirtied + d.GCDirtied,
		GCMapRMWs:       s.GCMapRMWs + d.GCMapRMWs,
		CheckpointPages: s.CheckpointPages + d.CheckpointPages,
	}
}

// HitRate returns the CMT hit fraction in [0,1]; 1 when nothing was
// looked up.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}

// noFrame is the empty value of a slot-index entry and of an LRU link.
const noFrame int32 = -1

// frame is one resident translation page: its TVPN, the current entries
// (which may be newer than the flash copy when dirty), and its LRU links —
// indices into the CMT's frame slab.
type frame struct {
	tvpn       uint32
	dirty      bool
	prev, next int32
	entries    []ssd.PPN
}

// CMT is the cached mapping table plus the directory state it pages
// against: the GTD and the modeled content of every flash-resident
// translation page. RAM cost is bounded by CMTFrames resident frames plus
// one GTD slot per translation page of the logical space; the flash
// content is simulation bookkeeping proportional to the mapped logical
// footprint (the analog of the shadow content arrays the sim devices
// keep), not controller RAM.
//
// Frames live in a slab that grows lazily up to CMTFrames and is never
// shrunk: an evicted (or crash-dropped) frame goes on a free list with its
// entries buffer, and the next Install reuses both, so the demand path
// allocates nothing once the cache is warm.
type CMT struct {
	cfg Config
	epp int
	gtd []ssd.PPN
	// slot is parallel to gtd: the slab index of each TVPN's resident
	// frame, or noFrame.
	slot []int32
	// flash is parallel to gtd: the modeled entries of each TVPN's
	// flash-resident translation page, meaningful while its GTD slot is
	// valid. A TVPN's buffer is allocated on its first commit and
	// overwritten in place by every later one; relocation only repoints
	// the GTD. Entries survive power loss; frames do not.
	flash [][]ssd.PPN

	frames     []frame // slab; len grows lazily up to CMTFrames
	free       []int32 // released slab indices, reused LIFO
	head, tail int32   // most / least recently used, or noFrame

	// Stat is incremented by the CMT and by the store's flash-op half.
	Stat Stats
}

// NewCMT builds a cached mapping table for a logical space of
// logicalPages entries over pageSize-byte translation pages. cfg must be
// enabled, validated and defaulted.
func NewCMT(cfg Config, logicalPages int64, pageSize int) (*CMT, error) {
	if !cfg.Enable {
		return nil, fmt.Errorf("dftl: NewCMT on a disabled config")
	}
	if cfg.CMTFrames < 1 {
		return nil, fmt.Errorf("%w: frame count must be ≥ 1 after WithDefaults, got %d", ErrBadFrames, cfg.CMTFrames)
	}
	epp := EntriesPerPage(pageSize)
	if epp < 1 {
		return nil, fmt.Errorf("dftl: page size %d holds no mapping entries", pageSize)
	}
	if logicalPages < 1 {
		return nil, fmt.Errorf("dftl: logical space must be positive, got %d", logicalPages)
	}
	pages := (logicalPages + int64(epp) - 1) / int64(epp)
	c := &CMT{
		cfg:   cfg,
		epp:   epp,
		gtd:   make([]ssd.PPN, pages),
		slot:  make([]int32, pages),
		flash: make([][]ssd.PPN, pages),
		head:  noFrame,
		tail:  noFrame,
	}
	Clear(c.gtd)
	for i := range c.slot {
		c.slot[i] = noFrame
	}
	return c, nil
}

// Clear sets every entry of entries (a translation-page buffer or the GTD)
// to InvalidPPN: unmapped, or never programmed.
func Clear(entries []ssd.PPN) {
	for i := range entries {
		entries[i] = ssd.InvalidPPN
	}
}

// Config returns the (defaulted) configuration the CMT was built with.
func (c *CMT) Config() Config { return c.cfg }

// TVPNOf returns the translation page covering lpn.
func (c *CMT) TVPNOf(lpn uint32) uint32 { return lpn / uint32(c.epp) }

// TransPages returns how many translation pages cover the logical space —
// the GTD length.
func (c *CMT) TransPages() int64 { return int64(len(c.gtd)) }

// Resident reports whether tvpn's frame is in the CMT.
func (c *CMT) Resident(tvpn uint32) bool { return c.slot[tvpn] != noFrame }

// ResidentDirty reports whether tvpn's frame is resident with unwritten
// updates.
func (c *CMT) ResidentDirty(tvpn uint32) bool {
	i := c.slot[tvpn]
	return i != noFrame && c.frames[i].dirty
}

// Loc returns tvpn's current flash location (InvalidPPN if the
// translation page was never programmed).
func (c *CMT) Loc(tvpn uint32) ssd.PPN { return c.gtd[tvpn] }

// Touch records a lookup of tvpn: a resident frame moves to the LRU head
// and counts a hit; otherwise a miss is counted and the caller must fault
// the frame in (EvictVictim + Install).
func (c *CMT) Touch(tvpn uint32) bool {
	if i := c.slot[tvpn]; i != noFrame {
		c.Stat.Hits++
		c.moveToHead(i)
		return true
	}
	c.Stat.Misses++
	return false
}

// Full reports whether installing one more frame requires an eviction.
func (c *CMT) Full() bool { return c.ResidentFrames() >= c.cfg.CMTFrames }

// EvictVictim removes the LRU frame and returns its TVPN, whether it was
// dirty, and (for a dirty victim) the entries the caller must write back
// via Committed. ok is false when the CMT is empty.
//
// The entries are the evicted frame's own buffer, which returns to the
// slab: they stay valid until the next Install, which reuses it. The
// write-back may run GC in between — updates to resident frames, commits
// and relocations of flash copies — but no GC path installs a frame.
func (c *CMT) EvictVictim() (tvpn uint32, dirty bool, entries []ssd.PPN, ok bool) {
	i := c.tail
	if i == noFrame {
		return 0, false, nil, false
	}
	c.unlink(i)
	f := &c.frames[i]
	c.slot[f.tvpn] = noFrame
	c.free = append(c.free, i)
	return f.tvpn, f.dirty, f.entries, true
}

// Install faults tvpn's frame into the CMT at the LRU head, loading
// entries from the modeled flash copy when one exists (the caller charges
// the translation-page read) or installing an all-unmapped frame for a
// never-written TVPN. The caller must have made room (Full + EvictVictim)
// first. Reports whether a flash copy was loaded.
func (c *CMT) Install(tvpn uint32) bool {
	if c.slot[tvpn] != noFrame {
		return false
	}
	i := c.takeFrame()
	f := &c.frames[i]
	f.tvpn, f.dirty = tvpn, false
	loaded := c.gtd[tvpn] != ssd.InvalidPPN
	if loaded {
		copy(f.entries, c.flash[tvpn])
		c.Stat.Fills++
	} else {
		Clear(f.entries)
	}
	c.slot[tvpn] = i
	c.pushHead(i)
	return loaded
}

// Update records a new binding for lpn in its resident frame, marking it
// dirty. The frame must be resident — MapWrite faults it in first.
func (c *CMT) Update(lpn uint32, ppn ssd.PPN) error {
	i := c.slot[c.TVPNOf(lpn)]
	if i == noFrame {
		return fmt.Errorf("dftl: update of lpn %d with no resident frame for tvpn %d", lpn, c.TVPNOf(lpn))
	}
	f := &c.frames[i]
	f.entries[int(lpn)%c.epp] = ppn
	f.dirty = true
	return nil
}

// Committed records that tvpn's current entries (EntriesPerPage of them)
// were programmed to flash at newPPN (an eviction write-back, a
// batch-folded GC relocation, or a recovery checkpoint): the entries are
// copied into tvpn's modeled flash page and the GTD repoints. Returns the
// old PPN so the caller can invalidate the stale flash copy (InvalidPPN
// if none).
func (c *CMT) Committed(tvpn uint32, entries []ssd.PPN, newPPN ssd.PPN) ssd.PPN {
	old := c.gtd[tvpn]
	if c.flash[tvpn] == nil {
		c.flash[tvpn] = make([]ssd.PPN, c.epp)
	}
	copy(c.flash[tvpn], entries)
	c.gtd[tvpn] = newPPN
	if i := c.slot[tvpn]; i != noFrame {
		c.frames[i].dirty = false
	}
	return old
}

// Relocated moves tvpn's unchanged flash copy from src to dst —
// translation GC's plain relocation path (no resident dirty fold).
func (c *CMT) Relocated(tvpn uint32, src, dst ssd.PPN) error {
	if c.gtd[tvpn] != src {
		return fmt.Errorf("dftl: relocation of tvpn %d from %d, but GTD says %d", tvpn, src, c.gtd[tvpn])
	}
	c.gtd[tvpn] = dst
	return nil
}

// FrameEntries returns a resident frame's current entries (nil when not
// resident) — translation GC's batch-evict fold reads the fresh content
// through this.
func (c *CMT) FrameEntries(tvpn uint32) []ssd.PPN {
	if i := c.slot[tvpn]; i != noFrame {
		return c.frames[i].entries
	}
	return nil
}

// FlashEntries returns the modeled content of tvpn's flash translation
// page (nil if it was never programmed). The slice is the model's own
// buffer, overwritten by the next Committed of tvpn.
func (c *CMT) FlashEntries(tvpn uint32) []ssd.PPN {
	if c.gtd[tvpn] == ssd.InvalidPPN {
		return nil
	}
	return c.flash[tvpn]
}

// EntryOf resolves lpn through the mapping table as flash would see it
// after the resident frames are flushed: the resident frame's entry when
// one exists, else the flash copy, else unmapped. Pure inspection — no
// LRU movement, no stats — for invariant checks and tests.
func (c *CMT) EntryOf(lpn uint32) (ssd.PPN, bool) {
	if e := c.FrameEntries(c.TVPNOf(lpn)); e != nil {
		p := e[int(lpn)%c.epp]
		return p, p != ssd.InvalidPPN
	}
	return c.DurableEntryOf(lpn)
}

// DurableEntryOf resolves lpn through flash alone — what survives a power
// cut: the last written-back translation page's entry. Test hook for the
// last-writer-wins property.
func (c *CMT) DurableEntryOf(lpn uint32) (ssd.PPN, bool) {
	e := c.FlashEntries(c.TVPNOf(lpn))
	if e == nil {
		return ssd.InvalidPPN, false
	}
	p := e[int(lpn)%c.epp]
	return p, p != ssd.InvalidPPN
}

// DropFrames models power loss: every resident frame — clean or dirty —
// vanishes with controller RAM. The GTD and flash content stand, exactly
// as the on-flash OOB scan would rebuild them. The frames' slab slots and
// buffers go back on the free list for the recovered drive to reuse.
func (c *CMT) DropFrames() {
	for i := c.head; i != noFrame; i = c.frames[i].next {
		c.slot[c.frames[i].tvpn] = noFrame
		c.free = append(c.free, i)
	}
	c.head, c.tail = noFrame, noFrame
}

// ResetAll clears frames, GTD and modeled flash content — recovery calls
// it after Rebuild turned every surviving translation page into garbage,
// just before re-landing the fresh mapping checkpoint. The flash buffers
// are kept: with every GTD slot invalid they hold no content, and the
// checkpoint's commits overwrite them.
func (c *CMT) ResetAll() {
	c.DropFrames()
	Clear(c.gtd)
}

// ResidentFrames returns how many frames are currently cached: every slab
// frame not on the free list.
func (c *CMT) ResidentFrames() int { return len(c.frames) - len(c.free) }

// takeFrame returns a free slab index: the most recently released frame,
// or a fresh one while the slab is below capacity.
func (c *CMT) takeFrame() int32 {
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		return i
	}
	c.frames = append(c.frames, frame{entries: make([]ssd.PPN, c.epp)})
	return int32(len(c.frames) - 1)
}

func (c *CMT) pushHead(i int32) {
	f := &c.frames[i]
	f.prev = noFrame
	f.next = c.head
	if c.head != noFrame {
		c.frames[c.head].prev = i
	}
	c.head = i
	if c.tail == noFrame {
		c.tail = i
	}
}

func (c *CMT) unlink(i int32) {
	f := &c.frames[i]
	if f.prev != noFrame {
		c.frames[f.prev].next = f.next
	} else {
		c.head = f.next
	}
	if f.next != noFrame {
		c.frames[f.next].prev = f.prev
	} else {
		c.tail = f.prev
	}
	f.prev, f.next = noFrame, noFrame
}

func (c *CMT) moveToHead(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushHead(i)
}
