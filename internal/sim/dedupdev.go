package sim

import (
	"zombiessd/internal/core"
	"zombiessd/internal/dedup"
	"zombiessd/internal/ftl"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
	"zombiessd/internal/trace"
)

// dedupDevice is the deduplicating SSD of Section VII, optionally combined
// with a dead-value pool (KindDVPDedup). Writes of content that is already
// live just add a reference; when a page loses its last reference it turns
// into garbage and — with the pool attached — becomes revivable, which is
// exactly the window (t3…t4 in Fig 13) deduplication alone cannot exploit.
type dedupDevice struct {
	cfg    Config
	bus    *ssd.Bus
	store  *ftl.Store
	dmap   *dedup.Mapper
	pool   core.Pool // nil for plain dedup
	ledger *core.Ledger
	lat    ssd.Latency

	tick core.Tick
	m    DeviceMetrics
}

func newDedupDevice(cfg Config, bus *ssd.Bus, store *ftl.Store) (*dedupDevice, error) {
	dmap, err := dedup.NewMapper(cfg.LogicalPages, cfg.Geometry.TotalPages())
	if err != nil {
		return nil, err
	}
	d := &dedupDevice{
		cfg:    cfg,
		bus:    bus,
		store:  store,
		dmap:   dmap,
		ledger: core.NewLedger(),
		lat:    cfg.Latency,
	}
	// GC relocation stamps the copy's OOB with the first owner; the other
	// owners of a deduplicated page are rebound via the durable journal so
	// recovery restores every reference. The closures read d.dmap so that
	// post-crash recovery can swap in a rebuilt mapper without rewiring.
	store.OwnerOf = func(ppn ssd.PPN) (ftl.LPN, bool) { return d.dmap.FirstOwner(ppn) }
	store.OnRelocate = func(src, dst ssd.PPN) {
		d.dmap.Relocate(src, dst)
		first, ok := d.dmap.FirstOwner(dst)
		if !ok {
			return
		}
		for lpn, ok := d.dmap.NextOwner(first); ok; lpn, ok = d.dmap.NextOwner(lpn) {
			store.AppendBinding(lpn, dst, false)
			// The store queues the first owner's translation update itself
			// when it stamps the relocated copy; secondary references are
			// only known here.
			store.NoteGCMapUpdate(lpn, dst)
		}
	}
	// Through d.dmap so post-crash recovery can swap in a rebuilt mapper
	// without rewiring.
	store.LookupOf = func(lpn ftl.LPN) (ssd.PPN, bool) { return d.dmap.Lookup(lpn) }
	if cfg.Kind == KindDVPDedup {
		pool, err := buildPool(cfg, d.ledger)
		if err != nil {
			return nil, err
		}
		d.pool = pool
		store.OnEraseGarbage = pool.Drop
		store.Scorer = pool
	}
	return d, nil
}

// Write implements Device.
func (d *dedupDevice) Write(lpn ftl.LPN, h trace.Hash, now ssd.Time) (ssd.Time, error) {
	d.m.HostWrites++
	d.tick++
	d.ledger.Bump(h)
	// Every path below starts by consulting the logical page's current
	// binding, so the covering translation frame is faulted in up front;
	// the bind at the end then dirties the already-resident frame.
	hashDone, merr := d.store.MapRead(lpn, now+d.lat.Hash)
	if merr != nil {
		return 0, wrapInterrupted(lpn, merr)
	}

	// Identical overwrite: the logical page already holds this content;
	// nothing changes anywhere.
	if ppn, ok := d.dmap.Lookup(lpn); ok {
		if v, _ := d.dmap.ValueOf(ppn); v == h {
			d.m.DedupHits++
			return hashDone, nil
		}
	}

	// Detach the old content; its physical page may become garbage.
	oldPPN, oldHash, garbage, _, err := d.dmap.Unbind(lpn)
	if err != nil {
		return 0, err
	}
	if garbage {
		if err := d.store.Invalidate(oldPPN); err != nil {
			return 0, err
		}
		if d.pool != nil {
			d.pool.Insert(oldHash, oldPPN, d.tick)
		}
	}

	// Dedup fast path: the value is live somewhere — add a reference.
	if ppn, ok := d.dmap.LiveValue(h); ok {
		if err := d.dmap.BindExisting(lpn, ppn); err != nil {
			return 0, err
		}
		d.store.AppendBinding(lpn, ppn, false)
		d.m.DedupHits++
		done, err := d.store.MapWrite(lpn, ppn, hashDone)
		if err != nil {
			return 0, wrapInterrupted(lpn, err)
		}
		return done, nil
	}

	// Dead-value pool path: the value is dead but a zombie copy survives.
	// Only mapping tables change, so the binding goes to the durable
	// journal, not OOB. On an armed store the revival must pass the
	// integrity gate first; a declined zombie falls through to a fresh
	// program, paying the verify read that condemned it.
	if d.pool != nil {
		if ppn, ok := d.pool.Lookup(h, d.tick); ok {
			vdone, ok, err := d.store.VerifyRevive(ppn, hashDone)
			if err != nil {
				return 0, wrapInterrupted(lpn, err)
			}
			if ok {
				if err := d.store.Revalidate(ppn); err != nil {
					return 0, err
				}
				d.store.AppendBinding(lpn, ppn, true)
				if err := d.dmap.BindNew(lpn, ppn, h); err != nil {
					return 0, err
				}
				d.m.Revived++
				vdone, err = d.store.MapWrite(lpn, ppn, vdone)
				if err != nil {
					return 0, wrapInterrupted(lpn, err)
				}
				return vdone, nil
			}
			hashDone = vdone
		}
	}

	// Cold value: program a fresh page.
	ppn, done, err := d.store.Program(hashDone)
	if err != nil {
		return 0, wrapInterrupted(lpn, err)
	}
	d.store.StampOOB(ppn, lpn, h, false)
	if err := d.dmap.BindNew(lpn, ppn, h); err != nil {
		return 0, err
	}
	done, err = d.store.MapWrite(lpn, ppn, done)
	if err != nil {
		return 0, wrapInterrupted(lpn, err)
	}
	return done, nil
}

// Read implements Device.
func (d *dedupDevice) Read(lpn ftl.LPN, now ssd.Time) (ssd.Time, error) {
	d.m.HostReads++
	ppn, ok := d.dmap.Lookup(lpn)
	if !ok {
		d.m.UnmappedReads++
		return now, nil
	}
	now, err := d.store.MapRead(lpn, now)
	if err != nil {
		return 0, wrapInterrupted(lpn, err)
	}
	return absorbUncorrectable(d.store.Read(ppn, now))
}

// Metrics implements Device.
func (d *dedupDevice) Metrics() DeviceMetrics {
	d.m.GC = d.store.GC()
	d.m.Faults = d.store.FaultStats()
	if d.pool != nil {
		d.m.Pool = d.pool.Stats()
	}
	d.m.Dftl = d.store.DftlStats()
	busCounts(&d.m, d.bus)
	return d.m
}

// registerTelemetry adds the deduplication gauges, plus the dead-value
// pool gauges when this is the combined DVP+Dedup architecture.
func (d *dedupDevice) registerTelemetry(tel *telemetry.Telemetry) {
	tel.RegisterGauge("dedup_hit_rate",
		"host writes short-circuited by a live duplicate", nil,
		func(ssd.Time) float64 {
			if d.m.HostWrites == 0 {
				return 0
			}
			return float64(d.m.DedupHits) / float64(d.m.HostWrites)
		})
	if d.pool != nil {
		tel.RegisterGauge("dvp_hit_rate",
			"dead-value pool lookup hit rate", nil,
			func(ssd.Time) float64 { return poolHitRate(d.pool.Stats()) })
		tel.RegisterGauge("dvp_revived_total",
			"host writes short-circuited by a zombie revival", nil,
			func(ssd.Time) float64 { return float64(d.m.Revived) })
	}
}

// DedupStats exposes the mapper's counters for tests and reports.
func (d *dedupDevice) DedupStats() dedup.Stats { return d.dmap.Stats() }

// Bus exposes the flash timing model for utilization reporting.
func (d *dedupDevice) Bus() *ssd.Bus { return d.bus }

// Store exposes the physical store for wear and capacity introspection.
func (d *dedupDevice) Store() *ftl.Store { return d.store }
