// Package rain models intra-SSD RAIN (redundant array of independent
// NAND): XOR parity striping across channels. A stripe is one page per
// channel at the same chip/die/plane/block/page offset — the PPN layout
// (internal/ssd) keeps each channel's pages contiguous, so stripe members
// sit a fixed stride apart. One member of every stripe is the parity slot,
// rotated across the stripe's channels by block+page offset so no single
// channel absorbs all parity traffic.
//
// The package is purely combinatorial: stripe geometry, membership masks
// and the flushed-parity bookkeeping. The FTL (internal/ftl) owns every
// side effect — charging parity programs to the bus, stamping parity OOB,
// reading survivors and re-landing reconstructed pages.
//
// Abstractions, stated explicitly:
//
//   - Parity updates for members destroyed by an erase are XOR-subtraction
//     performed in controller RAM against the parity buffer; the model
//     charges no flash operation for them. Adding a *new* member does
//     require landing fresh parity, which is charged as a real program —
//     that is the parity write-amplification tax the rainsweep experiment
//     measures.
//   - A stripe's parity slot stands for the latest page of a versioned
//     parity stream; superseded parity versions are folded into the slot
//     rather than tracked individually, so a parity rewrite charges a
//     program but reuses the address.
package rain

import (
	"errors"
	"fmt"
	"sort"

	"zombiessd/internal/ssd"
)

// ErrBadStripe is wrapped by Validate and NewTracker for malformed
// -rain-* configurations, so the flag surfaces (and FuzzRainConfig) can
// assert the rejection class with errors.Is.
var ErrBadStripe = errors.New("rain: bad stripe config")

// Stripe width bounds: at least one data page plus parity; membership
// masks are uint32.
const (
	MinStripe = 2
	MaxStripe = 32
)

// Config parameterizes channel-stripe parity. The zero value disables
// RAIN entirely: no tracker is built, no parity slots are reserved, and
// the store is bit-identical to a drive without the feature.
type Config struct {
	// Enable turns parity striping on.
	Enable bool

	// StripePages is the stripe width in pages (channels), including the
	// parity page: N data + 1 parity with N = StripePages-1. 0 means one
	// stripe spanning every channel of the geometry. Must divide the
	// channel count so stripes tile the drive exactly.
	StripePages int
}

// Enabled reports whether parity striping is on.
func (c Config) Enabled() bool { return c.Enable }

// Validate rejects out-of-range widths with ErrBadStripe. Geometry-
// dependent checks (width vs. channel count) happen in NewTracker, where
// the geometry is known.
func (c Config) Validate() error {
	if c.StripePages != 0 && (c.StripePages < MinStripe || c.StripePages > MaxStripe) {
		return fmt.Errorf("%w: stripe width must be 0 or in [%d,%d], got %d",
			ErrBadStripe, MinStripe, MaxStripe, c.StripePages)
	}
	return nil
}

// WithDefaults returns c unchanged; the width default (all channels) is
// geometry-dependent and resolved by NewTracker.
func (c Config) WithDefaults() Config { return c }

// Stats counts RAIN activity. All zeros while the feature is disabled.
type Stats struct {
	ParityPrograms      int64 // parity page programs charged to the bus
	StripeReflushes     int64 // parity rewrites of stripes that already had parity
	ReconstructedPages  int64 // pages rebuilt from surviving members + parity
	ReconstructionReads int64 // survivor reads those reconstructions charged
	RebuildPages        int64 // dead-die pages re-landed by the rebuild daemon
	RebuildRefreshes    int64 // unprotected-stripe pages refreshed by the daemon
}

// Any reports whether any RAIN activity was recorded.
func (s Stats) Any() bool { return s != Stats{} }

// Sub returns s minus prev, field-wise.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		ParityPrograms:      s.ParityPrograms - prev.ParityPrograms,
		StripeReflushes:     s.StripeReflushes - prev.StripeReflushes,
		ReconstructedPages:  s.ReconstructedPages - prev.ReconstructedPages,
		ReconstructionReads: s.ReconstructionReads - prev.ReconstructionReads,
		RebuildPages:        s.RebuildPages - prev.RebuildPages,
		RebuildRefreshes:    s.RebuildRefreshes - prev.RebuildRefreshes,
	}
}

// Add returns s plus d, field-wise.
func (s Stats) Add(d Stats) Stats {
	return Stats{
		ParityPrograms:      s.ParityPrograms + d.ParityPrograms,
		StripeReflushes:     s.StripeReflushes + d.StripeReflushes,
		ReconstructedPages:  s.ReconstructedPages + d.ReconstructedPages,
		ReconstructionReads: s.ReconstructionReads + d.ReconstructionReads,
		RebuildPages:        s.RebuildPages + d.RebuildPages,
		RebuildRefreshes:    s.RebuildRefreshes + d.RebuildRefreshes,
	}
}

// Tracker owns the stripe bookkeeping of one drive: which members of each
// stripe are physically programmed (data mask) and which members the last
// flushed parity page covers (parity mask). A stripe whose masks differ is
// open: its parity is stale and must be re-flushed before the uncovered
// members are protected. The Tracker is not safe for concurrent use,
// matching the simulator's single-goroutine device contract.
type Tracker struct {
	w      int   // stripe width: data members + 1 parity
	groups int   // channel groups (channels / w)
	ppc    int64 // pages per channel (the stripe-member stride)
	ppb    int64 // pages per block (parity-slot rotation input)

	data   []uint32 // per stripe: channel-in-group bits of programmed members
	parity []uint32 // per stripe: member bits covered by the flushed parity
	open   map[int64]struct{}
}

// NewTracker builds the stripe bookkeeping for the geometry, resolving a
// zero width to all channels. The width must divide both the channel
// count (stripes tile the drive) and the pages per block (every block
// holds the same number of parity slots).
func NewTracker(geo ssd.Geometry, cfg Config) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := cfg.StripePages
	if w == 0 {
		w = geo.Channels
	}
	if w < MinStripe {
		return nil, fmt.Errorf("%w: stripe width %d below %d (geometry has %d channels)",
			ErrBadStripe, w, MinStripe, geo.Channels)
	}
	if w > MaxStripe {
		return nil, fmt.Errorf("%w: stripe width %d above %d", ErrBadStripe, w, MaxStripe)
	}
	if geo.Channels%w != 0 {
		return nil, fmt.Errorf("%w: stripe width %d must divide the channel count %d",
			ErrBadStripe, w, geo.Channels)
	}
	if geo.PagesPerBlock%w != 0 {
		return nil, fmt.Errorf("%w: stripe width %d must divide the pages per block %d",
			ErrBadStripe, w, geo.PagesPerBlock)
	}
	t := &Tracker{
		w:      w,
		groups: geo.Channels / w,
		ppc:    geo.TotalPages() / int64(geo.Channels),
		ppb:    int64(geo.PagesPerBlock),
		open:   make(map[int64]struct{}),
	}
	stripes := int64(t.groups) * t.ppc
	t.data = make([]uint32, stripes)
	t.parity = make([]uint32, stripes)
	return t, nil
}

// Width returns the stripe width (data members + 1 parity).
func (t *Tracker) Width() int { return t.w }

// Stripes returns the number of stripes in the drive; one page per stripe
// is a parity slot, so this is also the drive's parity capacity in pages.
func (t *Tracker) Stripes() int64 { return int64(len(t.data)) }

// StripeOf returns the stripe index of page p.
func (t *Tracker) StripeOf(p ssd.PPN) int64 {
	ch := int64(p) / t.ppc
	return (ch/int64(t.w))*t.ppc + int64(p)%t.ppc
}

// cig returns p's channel index within its stripe group — its bit
// position in the stripe masks.
func (t *Tracker) cig(p ssd.PPN) int {
	return int((int64(p) / t.ppc) % int64(t.w))
}

// parityCIG returns which channel-in-group holds the parity slot of the
// stripe at this channel offset: rotated by block + page so parity load
// spreads across the group's channels.
func (t *Tracker) parityCIG(off int64) int {
	return int((off/t.ppb + off%t.ppb) % int64(t.w))
}

// IsParity reports whether page p is a parity slot.
func (t *Tracker) IsParity(p ssd.PPN) bool {
	return t.cig(p) == t.parityCIG(int64(p)%t.ppc)
}

// ParitySlot returns the parity page of the stripe.
func (t *Tracker) ParitySlot(stripe int64) ssd.PPN {
	off := stripe % t.ppc
	ch := (stripe/t.ppc)*int64(t.w) + int64(t.parityCIG(off))
	return ssd.PPN(ch*t.ppc + off)
}

// PageOf returns the member page of the stripe in channel-in-group cig.
func (t *Tracker) PageOf(stripe int64, cig int) ssd.PPN {
	ch := (stripe/t.ppc)*int64(t.w) + int64(cig)
	return ssd.PPN(ch*t.ppc + stripe%t.ppc)
}

// FullMask returns the mask of every data member of the stripe (all
// channels of the group except the parity slot).
func (t *Tracker) FullMask(stripe int64) uint32 {
	return (uint32(1)<<t.w - 1) &^ (uint32(1) << t.parityCIG(stripe%t.ppc))
}

// DataMask returns the programmed-member mask of the stripe.
func (t *Tracker) DataMask(stripe int64) uint32 { return t.data[stripe] }

// ParityMask returns the member mask the stripe's flushed parity covers.
func (t *Tracker) ParityMask(stripe int64) uint32 { return t.parity[stripe] }

// Covered reports whether the stripe's flushed parity protects page p —
// the precondition for reconstructing p from the surviving members.
func (t *Tracker) Covered(p ssd.PPN) bool {
	return t.parity[t.StripeOf(p)]&(uint32(1)<<t.cig(p)) != 0
}

// sync maintains the open-stripe set for one stripe.
func (t *Tracker) sync(stripe int64) {
	if t.data[stripe] != t.parity[stripe] {
		t.open[stripe] = struct{}{}
	} else {
		delete(t.open, stripe)
	}
}

// OnProgram records that data landed on page p and returns p's stripe
// plus whether every data member is now programmed — the stripe-close
// condition on which the FTL flushes parity. Must not be called for
// parity slots (the allocator never hands them out).
func (t *Tracker) OnProgram(p ssd.PPN) (stripe int64, complete bool) {
	stripe = t.StripeOf(p)
	t.data[stripe] |= uint32(1) << t.cig(p)
	t.sync(stripe)
	return stripe, t.data[stripe] == t.FullMask(stripe)
}

// NoteErased records that page p was destroyed by an erase (or retired
// with its block): a data member leaves both masks — the RAM-side
// XOR-subtraction the package comment describes — and an erased parity
// slot voids the stripe's flushed parity entirely.
func (t *Tracker) NoteErased(p ssd.PPN) {
	stripe := t.StripeOf(p)
	if t.IsParity(p) {
		t.parity[stripe] = 0
	} else {
		bit := uint32(1) << t.cig(p)
		t.data[stripe] &^= bit
		t.parity[stripe] &^= bit
	}
	t.sync(stripe)
}

// MarkFlushed records that the stripe's parity page now covers every
// programmed member.
func (t *Tracker) MarkFlushed(stripe int64) {
	t.parity[stripe] = t.data[stripe]
	t.sync(stripe)
}

// Drop removes the stripe from the open set without flushing — the FTL's
// escape hatch when the parity slot's block is dead or retired and the
// stripe cannot be protected at its fixed location.
func (t *Tracker) Drop(stripe int64) { delete(t.open, stripe) }

// IsOpen reports whether the stripe is queued for a parity flush.
func (t *Tracker) IsOpen(stripe int64) bool {
	_, ok := t.open[stripe]
	return ok
}

// OpenStripes returns the stripes whose parity is stale, in ascending
// order for deterministic flush sequences.
func (t *Tracker) OpenStripes() []int64 {
	out := make([]int64, 0, len(t.open))
	for st := range t.open {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reset clears every mask and the open set — the first step of rebuilding
// the tracker from durable OOB state after a crash.
func (t *Tracker) Reset() {
	for i := range t.data {
		t.data[i] = 0
		t.parity[i] = 0
	}
	t.open = make(map[int64]struct{})
}

// RestoreData re-registers a programmed data member during crash
// recovery, without the stripe-close signal (recovery re-flushes open
// stripes in one pass at the end).
func (t *Tracker) RestoreData(p ssd.PPN) {
	stripe := t.StripeOf(p)
	t.data[stripe] |= uint32(1) << t.cig(p)
	t.sync(stripe)
}

// RestoreParity re-registers a flushed parity mask during crash recovery,
// intersected with the restored data mask: members torn or erased since
// the flush cannot contribute to reconstruction, so the surviving parity
// only covers what is still physically present. Call after every
// RestoreData.
func (t *Tracker) RestoreParity(stripe int64, mask uint32) {
	t.parity[stripe] = mask & t.data[stripe]
	t.sync(stripe)
}
