package ftl

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"zombiessd/internal/dftl"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
)

// This file is the flash side of the DFTL-style flash-resident mapping
// (internal/dftl owns the RAM side): faulting translation-page frames into
// the CMT on mapping misses, writing dirty frames back on eviction,
// programming translation pages to the dedicated translation stream, and
// collecting translation blocks as a second GC stream that competes with
// data GC for each cycle. Every mapping-induced flash operation is a real
// bus operation, charged under its own telemetry origin (map-miss /
// map-writeback), so the mapping tax shows up in the latency attribution
// exactly like GC and ECC interference do.

// AttachCMT builds the cached mapping table for a host space of
// logicalPages pages. A no-op on a store whose DFTL config is disabled;
// devices call it once, right after NewStore, before any I/O.
func (s *Store) AttachCMT(logicalPages int64) error {
	if !s.cfg.DFTL.Enabled() {
		return nil
	}
	c, err := dftl.NewCMT(s.cfg.DFTL, logicalPages, s.geo.PageSize)
	if err != nil {
		return err
	}
	s.cmt = c
	s.transBuf = make([]ssd.PPN, dftl.EntriesPerPage(s.geo.PageSize))
	return nil
}

// DftlEnabled reports whether a CMT is attached — the flash-resident
// mapping is live.
func (s *Store) DftlEnabled() bool { return s.cmt != nil }

// DftlStats returns the mapping table's counters (zero when disabled).
func (s *Store) DftlStats() dftl.Stats {
	if s.cmt == nil {
		return dftl.Stats{}
	}
	return s.cmt.Stat
}

// CMTRef exposes the attached CMT for tests and invariant checks (nil when
// disabled).
func (s *Store) CMTRef() *dftl.CMT { return s.cmt }

// MapRead resolves the mapping lookup for a host read of lpn: with a CMT
// attached, the covering translation-page frame is faulted resident first,
// and any flash work that takes (a dirty eviction write-back, the
// translation-page read) completes before the data read may issue — the
// DFTL serialization that makes cache misses cost real latency. Returns
// the time the mapping became available; now unchanged on a hit or on a
// disabled store.
func (s *Store) MapRead(lpn LPN, now ssd.Time) (ssd.Time, error) {
	if s.cmt == nil {
		return now, nil
	}
	return s.ensureResident(s.cmt.TVPNOf(uint32(lpn)), now)
}

// MapWrite records the new binding lpn → ppn in the flash-resident
// mapping after a host write (or revival/dedup rebind) at time done: the
// covering frame is faulted resident — paying eviction and fill exactly
// like MapRead — and the entry is updated in RAM, leaving the frame dirty
// until write-back. Returns the time the mapping update was absorbed.
func (s *Store) MapWrite(lpn LPN, ppn ssd.PPN, done ssd.Time) (ssd.Time, error) {
	if s.cmt == nil {
		return done, nil
	}
	t, err := s.ensureResident(s.cmt.TVPNOf(uint32(lpn)), done)
	if err != nil {
		return 0, err
	}
	if err := s.cmt.Update(uint32(lpn), ppn); err != nil {
		return 0, err
	}
	return t, nil
}

// ensureResident faults tvpn's frame into the CMT: LRU hit → free; miss →
// evict the LRU frame (writing it back if dirty), then load the flash copy
// if one exists. Returns when the frame is usable.
func (s *Store) ensureResident(tvpn uint32, now ssd.Time) (ssd.Time, error) {
	if s.cmt.Touch(tvpn) {
		return now, nil
	}
	done := now
	if s.cmt.Full() {
		vt, dirty, entries, ok := s.cmt.EvictVictim()
		if ok && dirty {
			var err error
			done, err = s.writebackFrame(vt, entries, done)
			if err != nil {
				return 0, err
			}
		}
	}
	if loc := s.cmt.Loc(tvpn); loc != ssd.InvalidPPN {
		prev := s.Tel.EnterMapPhase(telemetry.OriginMapMiss)
		rdone, err := s.readPageAt(loc, done, done, false)
		s.Tel.ExitOrigin(prev)
		s.cmt.Stat.TransReads++
		if err != nil && !errors.Is(err, ErrUncorrectable) {
			return 0, err
		}
		// An uncorrectable translation read still loads the modeled entries:
		// a real controller falls back to the OOB scan for one page; the
		// model charges the failed ladder's latency and carries on.
		done = rdone
	}
	s.cmt.Install(tvpn)
	return done, nil
}

// writebackFrame programs an evicted dirty frame's entries to a fresh
// translation page, repoints the GTD, and invalidates the stale flash
// copy. Charged under the map-writeback origin.
//
// The wb guard closes a lost-update window: programTrans may run a data-GC
// cycle whose relocations rebind LPNs covered by this (already-evicted)
// frame. The cycle's tail flush would see the TVPN non-resident, fold the
// rebinding into flash by RMW — and the Committed below would then
// overwrite it with the stale pre-GC snapshot. With the guard up,
// flushMapUpdates keeps this TVPN's rebindings queued; they land on the
// next flush, on top of the page committed here.
func (s *Store) writebackFrame(tvpn uint32, entries []ssd.PPN, now ssd.Time) (ssd.Time, error) {
	prev := s.Tel.EnterMapPhase(telemetry.OriginMapWriteback)
	defer s.Tel.ExitOrigin(prev)
	s.wbTVPN, s.wbActive = tvpn, true
	defer func() { s.wbActive = false }()
	dst, done, err := s.programTrans(tvpn, now, true)
	if err != nil {
		return 0, err
	}
	old := s.cmt.Committed(tvpn, entries, dst)
	if old != ssd.InvalidPPN {
		if err := s.Invalidate(old); err != nil {
			return 0, err
		}
	}
	s.cmt.Stat.Writebacks++
	return done, nil
}

// programTrans lands one translation page on the translation stream of the
// next plane in the channel-striped rotation, stamping its OOB with the
// TVPN and the Trans mark. ensure runs GC on the target plane first (the
// paths already inside a GC cycle pass false — their frontier space is
// accounted by the cycle itself).
func (s *Store) programTrans(tvpn uint32, stamp ssd.Time, ensure bool) (ssd.PPN, ssd.Time, error) {
	plane, err := s.nextPlane()
	if err != nil {
		return ssd.InvalidPPN, 0, err
	}
	if ensure {
		if err := s.ensureSpace(plane, stamp); err != nil {
			return ssd.InvalidPPN, 0, err
		}
	}
	ppn, done, err := s.programAt(plane, s.transStream(plane), stamp)
	if err != nil {
		return ssd.InvalidPPN, 0, err
	}
	s.seq++
	s.setOOB(ppn, OOB{State: OOBProgrammed, LPN: LPN(tvpn), Trans: true, Seq: s.seq})
	s.cmt.Stat.TransPrograms++
	return ppn, done, nil
}

// victimTrans selects the translation-GC victim for a plane: the
// highest-scoring translation block with any invalid page whose valid
// pages fit the translation stream's relocation capacity, or InvalidBlock.
// It reuses victimScore, so fault-aware penalties (and suspect draining)
// steer translation GC exactly like data GC.
func (s *Store) victimTrans(plane int) ssd.BlockID {
	best := ssd.InvalidBlock
	bestScore := math.Inf(-1)
	capacity := s.transRelocationCapacity(plane)
	for i := 0; i < s.geo.BlocksPerPlane; i++ {
		b := s.geo.BlockAt(plane, i)
		info := &s.blocks[b]
		if !info.trans || info.free || info.active || info.bad || info.dead ||
			info.draining || info.invalid == 0 || info.valid > capacity {
			continue
		}
		score := s.victimScore(b)
		if score > bestScore {
			bestScore = score
			best = b
		}
	}
	return best
}

// transRelocationCapacity is relocationCapacity for the translation
// stream: the rest of its write frontier plus every free block.
func (s *Store) transRelocationCapacity(plane int) int32 {
	pl := &s.planes[plane]
	fr := &pl.frontiers[s.transStream(plane)]
	c := int32(s.geo.PagesPerBlock-fr.nextPage) + int32(s.geo.PagesPerBlock*len(pl.freeBlocks))
	if s.rain != nil {
		w := int32(s.rain.Width())
		c = c * (w - 1) / w
	}
	return c
}

// collectTransPlane runs one translation-GC cycle: still-valid translation
// pages are relocated within the translation stream — or, under
// BatchEvict, rebuilt from their resident dirty frame so the write-back
// the frame owed is folded into the relocation program (Dayan & Bonnet's
// batched eviction) — and the block is erased back into the general pool.
func (s *Store) collectTransPlane(plane int, v ssd.BlockID, now ssd.Time) (bool, error) {
	s.gc.Runs++
	s.cmt.Stat.TransGCRuns++
	prevOrigin := s.Tel.EnterOrigin(telemetry.OriginGC)
	defer s.Tel.ExitOrigin(prevOrigin)
	s.bus.SuspendScope(true)
	defer s.bus.SuspendScope(false)
	relocBefore := s.gc.Relocated
	first := s.geo.FirstPage(v)
	for i := 0; i < s.geo.PagesPerBlock; i++ {
		p := first + ssd.PPN(i)
		switch s.State(p) {
		case PageValid:
			tvpn := uint32(s.OOBOf(p).LPN)
			if s.cfg.DFTL.BatchEvict && s.cmt.ResidentDirty(tvpn) {
				// The resident frame is newer than the flash copy: program
				// the fresh entries instead of copying the stale page. No
				// read, and the frame comes back clean — the deferred
				// write-back just got paid for free.
				dst, _, err := s.programAt(plane, s.transStream(plane), now)
				if err != nil && errors.Is(err, ErrProgramFault) {
					dst, _, err = s.relandStream(plane, s.transStream(plane), now)
				}
				if err != nil {
					return false, fmt.Errorf("ftl: translation-GC fold of tvpn %d: %w", tvpn, err)
				}
				s.seq++
				s.setOOB(dst, OOB{State: OOBProgrammed, LPN: LPN(tvpn), Trans: true, Seq: s.seq})
				// The old copy is p itself, consumed by the erase below — no
				// Invalidate needed.
				s.cmt.Committed(tvpn, s.cmt.FrameEntries(tvpn), dst)
				s.cmt.Stat.TransPrograms++
				s.cmt.Stat.BatchFolded++
				s.gc.Relocated++
			} else {
				readDone, err := s.readPage(p, now)
				if err != nil && !errors.Is(err, ErrUncorrectable) {
					return false, fmt.Errorf("ftl: translation-GC read of page %d: %w", p, err)
				}
				s.cmt.Stat.TransReads++
				dst, _, err := s.programAt(plane, s.transStream(plane), readDone)
				if err != nil && errors.Is(err, ErrProgramFault) {
					dst, _, err = s.relandStream(plane, s.transStream(plane), readDone)
				}
				if err != nil {
					return false, fmt.Errorf("ftl: translation-GC relocation of page %d: %w", p, err)
				}
				s.cmt.Stat.TransPrograms++
				s.gc.Relocated++
				s.stampRelocated(p, dst)
			}
		case PageInvalid:
			// Stale translation pages were never host garbage — the
			// dead-value pool holds no zombies here, so no OnEraseGarbage.
		}
		s.setState(p, PageFree)
	}
	return s.eraseVictim(plane, v, now, s.gc.Relocated-relocBefore)
}

// NoteGCMapUpdate queues a GC-produced rebinding (lpn now lives at ppn)
// for the next translation-page flush. Data GC cannot update translation
// pages entry-by-entry — each is a whole-page program — so rebindings
// accumulate and are folded per translation page by flushMapUpdates.
// A no-op without a CMT.
func (s *Store) NoteGCMapUpdate(lpn LPN, ppn ssd.PPN) {
	if s.cmt == nil {
		return
	}
	s.mapPend = append(s.mapPend, mapUpdate{tvpn: s.cmt.TVPNOf(uint32(lpn)), lpn: lpn, ppn: ppn})
}

// flushMapUpdates folds the queued GC rebindings into the mapping table,
// one translation page at a time in ascending TVPN order: updates covered
// by a resident frame just dirty it (deferred to its write-back); the rest
// read-modify-write their flash translation page. Rebindings a later host
// write superseded are discarded (the host path already updated the CMT),
// which LookupOf detects. Called at the erase tail of every GC cycle and
// after any other bulk relocation (refresh, RAIN reconstruction).
//
// The queue is double-buffered: the batch being folded leaves mapPend,
// which takes the spare buffer for the rebindings this flush keeps queued.
// A nested flush would find no spare and start a fresh one.
func (s *Store) flushMapUpdates(now ssd.Time) error {
	if s.cmt == nil || len(s.mapPend) == 0 {
		return nil
	}
	work := s.mapPend
	s.mapPend, s.mapSpare = s.mapSpare[:0], nil
	n := 0
	for _, u := range work {
		if s.LookupOf != nil {
			if cur, ok := s.LookupOf(u.lpn); !ok || cur != u.ppn {
				continue // superseded: the newer binding already went through MapWrite
			}
		}
		if s.wbActive && u.tvpn == s.wbTVPN {
			// This translation page is mid-write-back; folding now would be
			// overwritten by its stale snapshot. Keep the update queued.
			s.mapPend = append(s.mapPend, u)
			continue
		}
		work[n] = u
		n++
	}
	work = work[:n]
	// Stable, so each translation page's updates apply in queue order.
	slices.SortStableFunc(work, func(a, b mapUpdate) int { return cmp.Compare(a.tvpn, b.tvpn) })
	for i := 0; i < len(work); {
		tvpn, j := work[i].tvpn, i+1
		for j < len(work) && work[j].tvpn == tvpn {
			j++
		}
		if err := s.foldMapUpdates(tvpn, work[i:j], now); err != nil {
			return err
		}
		i = j
	}
	s.mapSpare = work[:0]
	return nil
}

// foldMapUpdates applies one translation page's queued rebindings: into
// its resident frame, or by read-modify-write of its flash copy.
func (s *Store) foldMapUpdates(tvpn uint32, ups []mapUpdate, now ssd.Time) error {
	if s.cmt.Resident(tvpn) {
		for _, u := range ups {
			if err := s.cmt.Update(uint32(u.lpn), u.ppn); err != nil {
				return err
			}
		}
		s.cmt.Stat.GCDirtied += int64(len(ups))
		return nil
	}
	prev := s.Tel.EnterMapPhase(telemetry.OriginMapWriteback)
	defer s.Tel.ExitOrigin(prev)
	return s.rmwTransPage(tvpn, ups, now)
}

// rmwTransPage read-modify-writes one non-resident translation page: read
// the current flash copy (if any), apply the rebindings, program the
// result, invalidate the stale copy. The new content is built in the
// store's scratch buffer, which nothing between here and Committed reuses.
func (s *Store) rmwTransPage(tvpn uint32, ups []mapUpdate, now ssd.Time) error {
	entries := s.transBuf
	if loc := s.cmt.Loc(tvpn); loc != ssd.InvalidPPN {
		_, err := s.readPageAt(loc, now, now, false)
		s.cmt.Stat.TransReads++
		if err != nil && !errors.Is(err, ErrUncorrectable) {
			return err
		}
		copy(entries, s.cmt.FlashEntries(tvpn))
	} else {
		dftl.Clear(entries)
	}
	epp := len(entries)
	for _, u := range ups {
		entries[int(uint32(u.lpn))%epp] = u.ppn
	}
	dst, _, err := s.programTrans(tvpn, now, false)
	if err != nil {
		return err
	}
	old := s.cmt.Committed(tvpn, entries, dst)
	if old != ssd.InvalidPPN {
		if err := s.Invalidate(old); err != nil {
			return err
		}
	}
	s.cmt.Stat.GCMapRMWs++
	return nil
}

// RecoverDftl re-lands a fresh mapping checkpoint after a crash: Rebuild
// has already turned every surviving translation page into garbage, so the
// CMT resets and one translation page per populated TVPN is programmed
// from the last-writer-wins winners recovery computed. Call it only after
// the in-RAM mapper has been rebuilt and rewired (OnRelocate, OwnerOf,
// LookupOf): making room for checkpoint pages can itself run GC, which
// relocates winner pages — so each page's binding is resolved through
// LookupOf at the last moment, after space for its translation page is
// secured. A no-op without a CMT.
func (s *Store) RecoverDftl(winners []Binding, now ssd.Time) error {
	if s.cmt == nil {
		return nil
	}
	s.cmt.ResetAll()
	s.mapPend = s.mapPend[:0]
	epp := dftl.EntriesPerPage(s.geo.PageSize)
	byTVPN := make(map[uint32][]Binding)
	var order []uint32
	for _, b := range winners {
		t := s.cmt.TVPNOf(uint32(b.LPN))
		if _, ok := byTVPN[t]; !ok {
			order = append(order, t)
		}
		byTVPN[t] = append(byTVPN[t], b)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, tvpn := range order {
		plane, err := s.nextPlane()
		if err != nil {
			return err
		}
		if err := s.ensureSpace(plane, now); err != nil {
			return err
		}
		// Built in the RMW scratch only now: ensureSpace above may have
		// run a GC cycle whose map flush used it.
		entries := s.transBuf
		dftl.Clear(entries)
		for _, b := range byTVPN[tvpn] {
			ppn := b.PPN
			if s.LookupOf != nil {
				if cur, ok := s.LookupOf(b.LPN); ok {
					ppn = cur
				}
			}
			entries[int(uint32(b.LPN))%epp] = ppn
		}
		dst, _, err := s.programAt(plane, s.transStream(plane), now)
		if err != nil {
			if !errors.Is(err, ErrProgramFault) {
				return err
			}
			if dst, _, err = s.relandStream(plane, s.transStream(plane), now); err != nil {
				return err
			}
		}
		s.seq++
		s.setOOB(dst, OOB{State: OOBProgrammed, LPN: LPN(tvpn), Trans: true, Seq: s.seq})
		s.cmt.Stat.TransPrograms++
		s.cmt.Committed(tvpn, entries, dst)
		s.cmt.Stat.CheckpointPages++
	}
	return nil
}

// CheckDftl verifies that the flash-resident mapping agrees with the
// RAM-resident reference mapping for every logical page: the CMT view
// (resident frame over flash copy), overlaid with still-current pending GC
// rebindings, must equal lookup everywhere. O(logical space) — a test and
// invariant-check hook, never the hot path. A no-op without a CMT.
func (s *Store) CheckDftl(lookup func(LPN) (ssd.PPN, bool), logicalPages int64) error {
	if s.cmt == nil {
		return nil
	}
	overlay := make(map[LPN]ssd.PPN, len(s.mapPend))
	for _, u := range s.mapPend {
		if cur, ok := lookup(u.lpn); ok && cur == u.ppn {
			overlay[u.lpn] = u.ppn
		}
	}
	for lpn := int64(0); lpn < logicalPages; lpn++ {
		want, okWant := lookup(LPN(lpn))
		got, okGot := s.cmt.EntryOf(uint32(lpn))
		if p, ok := overlay[LPN(lpn)]; ok {
			got, okGot = p, true
		}
		if okWant != okGot || (okWant && want != got) {
			return fmt.Errorf("ftl: CheckDftl: lpn %d maps to %d/%v, reference says %d/%v",
				lpn, got, okGot, want, okWant)
		}
	}
	return nil
}
