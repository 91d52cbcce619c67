package sim

import (
	"fmt"

	"zombiessd/internal/core"
	"zombiessd/internal/dedup"
	"zombiessd/internal/ftl"
	"zombiessd/internal/lxssd"
	"zombiessd/internal/recovery"
	"zombiessd/internal/sparse"
	"zombiessd/internal/telemetry"
	"zombiessd/internal/trace"
)

// RecoverOptions tunes post-power-loss recovery.
type RecoverOptions struct {
	// ColdPool skips re-seeding the dead-value pool from the surviving
	// garbage pages the OOB scan found — the control arm that measures
	// what re-seeding buys.
	ColdPool bool
}

// Recoverer is implemented by every device that can rebuild its mapping
// state after sudden power loss.
type Recoverer interface {
	// Recover scans the durable state (OOB areas + mapping journal),
	// rebuilds the store's block accounting, the mapping tables and —
	// unless opts.ColdPool — the dead-value pool, then returns the scan
	// report. The device is fully operational afterwards.
	Recover(opts RecoverOptions) (recovery.Report, error)
}

// HashReader exposes the content hash a logical page would return if read
// — the integrity oracle's probe.
type HashReader interface {
	ReadHash(lpn ftl.LPN) (trace.Hash, bool)
}

// Recover runs post-power-loss recovery on dev.
func Recover(dev Device, opts RecoverOptions) (recovery.Report, error) {
	r, ok := dev.(Recoverer)
	if !ok {
		return recovery.Report{}, fmt.Errorf("sim: device %T cannot recover", dev)
	}
	return r.Recover(opts)
}

// recoverPlan scans the store and rebuilds its physical block accounting —
// the part of recovery every architecture shares. Any flash traffic during
// the scan is tagged OriginRecovery, and the scan lands as one span on the
// timeline's recovery track.
func recoverPlan(store *ftl.Store) (recovery.Plan, error) {
	tel := store.Telemetry()
	prevOrigin := tel.EnterOrigin(telemetry.OriginRecovery)
	defer tel.ExitOrigin(prevOrigin)
	plan, err := recovery.BuildPlan(recovery.SnapshotOf(store))
	if err != nil {
		return recovery.Plan{}, err
	}
	if err := store.Rebuild(plan.ValidPPNs(), plan.GarbagePPNs()); err != nil {
		return recovery.Plan{}, err
	}
	if tel.On() {
		tel.EmitSpan(telemetry.OriginRecovery, "recovery scan", 0, 0, map[string]any{
			"winners": len(plan.Winners),
		})
	}
	return plan, nil
}

// recoverDftl re-lands the translation checkpoint from the scan's winners.
// Every pre-crash translation page is stale against the scan, so the whole
// table is rewritten. Must run AFTER the device has rebuilt and rewired its
// in-RAM mapper: checkpoint programs can trigger GC, whose relocations and
// pending-map-update filtering go through OnRelocate/OwnerOf/LookupOf.
// Stamped at 0 like the scan itself — recovery time is accounted by
// ScanCost, not the bus.
func recoverDftl(store *ftl.Store, plan recovery.Plan) error {
	if !store.DftlEnabled() {
		return nil
	}
	tel := store.Telemetry()
	prevOrigin := tel.EnterOrigin(telemetry.OriginRecovery)
	defer tel.ExitOrigin(prevOrigin)
	binds := make([]ftl.Binding, 0, len(plan.Winners))
	for _, w := range plan.Winners {
		binds = append(binds, ftl.Binding{LPN: w.LPN, PPN: w.PPN})
	}
	return store.RecoverDftl(binds, 0)
}

// rebuildMapper binds every recovered winner into a fresh page map.
func rebuildMapper(store *ftl.Store, logical int64, plan recovery.Plan) (*ftl.Mapper, error) {
	mapper, err := ftl.NewMapper(logical, store.Geometry().TotalPages())
	if err != nil {
		return nil, err
	}
	for _, w := range plan.Winners {
		if int64(w.LPN) >= logical {
			return nil, fmt.Errorf("sim: recovered LPN %d outside logical space %d", w.LPN, logical)
		}
		mapper.Bind(w.LPN, w.PPN)
	}
	return mapper, nil
}

// Recover implements Recoverer for the baseline device.
func (d *baselineDevice) Recover(opts RecoverOptions) (recovery.Report, error) {
	plan, err := recoverPlan(d.store)
	if err != nil {
		return recovery.Report{}, err
	}
	mapper, err := rebuildMapper(d.store, d.cfg.LogicalPages, plan)
	if err != nil {
		return recovery.Report{}, err
	}
	d.mapper = mapper
	d.store.OnRelocate = mapper.Relocate
	d.store.OwnerOf = mapper.OwnerOf
	if err := recoverDftl(d.store, plan); err != nil {
		return recovery.Report{}, err
	}
	return plan.Report, nil
}

// ReadHash implements HashReader: a live page's content is its OOB hash
// (revived pages keep the hash they were programmed with — revival is
// content-identity by construction).
func (d *baselineDevice) ReadHash(lpn ftl.LPN) (trace.Hash, bool) {
	return storedHash(d.mapper, d.store, lpn)
}

func storedHash(mapper *ftl.Mapper, store *ftl.Store, lpn ftl.LPN) (trace.Hash, bool) {
	ppn, ok := mapper.Lookup(lpn)
	if !ok || store.LostPage(ppn) {
		// Unmapped, or destroyed by an uncorrectable read: either way the
		// host cannot get the data back, and the oracle records a loss.
		return trace.Hash{}, false
	}
	return store.OOBOf(ppn).Hash, true
}

// Recover implements Recoverer for the DVP device. Popularity counters are
// volatile and start cold; the pool is rebuilt from the scan's zombie
// pages in death order unless opts.ColdPool.
func (d *dvpDevice) Recover(opts RecoverOptions) (recovery.Report, error) {
	plan, err := recoverPlan(d.store)
	if err != nil {
		return recovery.Report{}, err
	}
	mapper, err := rebuildMapper(d.store, d.cfg.LogicalPages, plan)
	if err != nil {
		return recovery.Report{}, err
	}
	content := sparse.New(d.cfg.LogicalPages, trace.Hash{})
	for _, w := range plan.Winners {
		content.Set(int64(w.LPN), w.Hash)
	}
	ledger := core.NewLedger()
	pool, err := buildPool(d.cfg, ledger)
	if err != nil {
		return recovery.Report{}, err
	}
	if !opts.ColdPool {
		for _, g := range plan.Garbage {
			d.tick++
			pool.Insert(g.Hash, g.PPN, d.tick)
		}
	}
	d.mapper, d.content, d.ledger, d.pool = mapper, content, ledger, pool
	d.store.OnRelocate = mapper.Relocate
	d.store.OwnerOf = mapper.OwnerOf
	d.store.OnEraseGarbage = pool.Drop
	d.store.Scorer = pool
	if err := recoverDftl(d.store, plan); err != nil {
		return recovery.Report{}, err
	}
	return plan.Report, nil
}

// ReadHash implements HashReader.
func (d *dvpDevice) ReadHash(lpn ftl.LPN) (trace.Hash, bool) {
	return storedHash(d.mapper, d.store, lpn)
}

// Recover implements Recoverer for the dedup device: winners sharing a
// physical page become references to one live copy, exactly reversing the
// dedup write path.
func (d *dedupDevice) Recover(opts RecoverOptions) (recovery.Report, error) {
	plan, err := recoverPlan(d.store)
	if err != nil {
		return recovery.Report{}, err
	}
	dmap, err := dedupMapperFrom(d.cfg.LogicalPages, d.store.Geometry().TotalPages(), plan)
	if err != nil {
		return recovery.Report{}, err
	}
	d.dmap = dmap
	if d.cfg.Kind == KindDVPDedup {
		d.ledger = core.NewLedger()
		pool, err := buildPool(d.cfg, d.ledger)
		if err != nil {
			return recovery.Report{}, err
		}
		if !opts.ColdPool {
			for _, g := range plan.Garbage {
				d.tick++
				pool.Insert(g.Hash, g.PPN, d.tick)
			}
		}
		d.pool = pool
		d.store.OnEraseGarbage = pool.Drop
		d.store.Scorer = pool
	}
	if err := recoverDftl(d.store, plan); err != nil {
		return recovery.Report{}, err
	}
	return plan.Report, nil
}

// ReadHash implements HashReader.
func (d *dedupDevice) ReadHash(lpn ftl.LPN) (trace.Hash, bool) {
	ppn, ok := d.dmap.Lookup(lpn)
	if !ok || d.store.LostPage(ppn) {
		return trace.Hash{}, false
	}
	return d.store.OOBOf(ppn).Hash, true
}

// Recover implements Recoverer for the LX device. Its recycler tracks
// address recency, so re-seeding hands each zombie back with the address
// that last owned it.
func (d *lxDevice) Recover(opts RecoverOptions) (recovery.Report, error) {
	plan, err := recoverPlan(d.store)
	if err != nil {
		return recovery.Report{}, err
	}
	mapper, err := rebuildMapper(d.store, d.cfg.LogicalPages, plan)
	if err != nil {
		return recovery.Report{}, err
	}
	content := sparse.New(d.cfg.LogicalPages, trace.Hash{})
	for _, w := range plan.Winners {
		content.Set(int64(w.LPN), w.Hash)
	}
	pool, err := lxPoolFrom(d.cfg.LX, d.store.Geometry().TotalPages(), d.cfg.LogicalPages, plan, opts.ColdPool)
	if err != nil {
		return recovery.Report{}, err
	}
	d.mapper, d.content, d.pool = mapper, content, pool
	d.store.OnRelocate = mapper.Relocate
	d.store.OwnerOf = mapper.OwnerOf
	d.store.OnEraseGarbage = pool.Drop
	if err := recoverDftl(d.store, plan); err != nil {
		return recovery.Report{}, err
	}
	return plan.Report, nil
}

// lxPoolFrom builds the LX-SSD recycler after a crash and, unless cold,
// re-seeds it from the scan's zombie pages, each under the address that
// last owned it. A zombie outside the drive is an error naming the page.
func lxPoolFrom(cfg lxssd.Config, physical, logical int64, plan recovery.Plan, cold bool) (*lxssd.Pool, error) {
	pool, err := lxssd.New(cfg, physical, logical)
	if err != nil || cold {
		return pool, err
	}
	for _, g := range plan.Garbage {
		if int64(g.LPN) >= logical || int64(g.PPN) >= physical {
			return nil, fmt.Errorf("sim: recovered zombie page %d of LPN %d outside the drive (%d physical, %d logical pages)",
				g.PPN, g.LPN, physical, logical)
		}
		pool.Insert(g.Hash, g.PPN, uint64(g.LPN))
	}
	return pool, nil
}

// ReadHash implements HashReader.
func (d *lxDevice) ReadHash(lpn ftl.LPN) (trace.Hash, bool) {
	return storedHash(d.mapper, d.store, lpn)
}

// Recover implements Recoverer for the buffered device: the DRAM buffer's
// contents vanish with power — only pages that reached the inner device
// survive.
func (d *bufferedDevice) Recover(opts RecoverOptions) (recovery.Report, error) {
	d.buf.Drain()
	r, ok := d.inner.(Recoverer)
	if !ok {
		return recovery.Report{}, fmt.Errorf("sim: inner device %T cannot recover", d.inner)
	}
	return r.Recover(opts)
}

// ReadHash implements HashReader: dirty buffered pages first, flash after.
// It is a probe, not a host read, so it counts no buffer read hit.
func (d *bufferedDevice) ReadHash(lpn ftl.LPN) (trace.Hash, bool) {
	if h, ok := d.buf.Peek(lpn); ok {
		return h, true
	}
	hr, ok := d.inner.(HashReader)
	if !ok {
		return trace.Hash{}, false
	}
	return hr.ReadHash(lpn)
}

// dedupMapperFrom rebuilds the dedup mapping from recovered winners: the
// first claimant of a physical page re-creates the live copy, later
// claimants of the same page become references.
func dedupMapperFrom(logical, physical int64, plan recovery.Plan) (*dedup.Mapper, error) {
	dmap, err := dedup.NewMapper(logical, physical)
	if err != nil {
		return nil, err
	}
	for _, w := range plan.Winners {
		if int64(w.LPN) >= logical {
			return nil, fmt.Errorf("sim: recovered LPN %d outside logical space %d", w.LPN, logical)
		}
		if int64(w.PPN) >= physical {
			return nil, fmt.Errorf("sim: recovered PPN %d of LPN %d outside physical space %d",
				w.PPN, w.LPN, physical)
		}
		if live, ok := dmap.LiveValue(w.Hash); ok {
			if live != w.PPN {
				return nil, fmt.Errorf("sim: recovered value of LPN %d is live at both page %d and %d",
					w.LPN, live, w.PPN)
			}
			if err := dmap.BindExisting(w.LPN, live); err != nil {
				return nil, err
			}
			continue
		}
		if err := dmap.BindNew(w.LPN, w.PPN, w.Hash); err != nil {
			return nil, err
		}
	}
	return dmap, nil
}
