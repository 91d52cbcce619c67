package sim

import (
	"zombiessd/internal/ftl"
	"zombiessd/internal/lxssd"
	"zombiessd/internal/sparse"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
	"zombiessd/internal/trace"
)

// lxDevice is the LX-SSD prior-work system: garbage-page recycling with
// address-recency LRU and read+write popularity, on a plain FTL with
// greedy (popularity-unaware) GC.
type lxDevice struct {
	cfg    Config
	bus    *ssd.Bus
	store  *ftl.Store
	mapper *ftl.Mapper
	pool   *lxssd.Pool
	lat    ssd.Latency

	content *sparse.Array[trace.Hash]
	m       DeviceMetrics
}

func newLXDevice(cfg Config, bus *ssd.Bus, store *ftl.Store) (*lxDevice, error) {
	mapper, err := ftl.NewMapper(cfg.LogicalPages, cfg.Geometry.TotalPages())
	if err != nil {
		return nil, err
	}
	pool, err := lxssd.New(cfg.LX, cfg.Geometry.TotalPages(), cfg.LogicalPages)
	if err != nil {
		return nil, err
	}
	d := &lxDevice{
		cfg:     cfg,
		bus:     bus,
		store:   store,
		mapper:  mapper,
		pool:    pool,
		lat:     cfg.Latency,
		content: sparse.New(cfg.LogicalPages, trace.Hash{}),
	}
	store.OnRelocate = mapper.Relocate
	store.OwnerOf = mapper.OwnerOf
	store.OnEraseGarbage = d.pool.Drop
	// Through d so post-crash recovery can swap in a rebuilt mapper
	// without rewiring.
	store.LookupOf = func(lpn ftl.LPN) (ssd.PPN, bool) { return d.mapper.Lookup(lpn) }
	return d, nil
}

// Write implements Device.
func (d *lxDevice) Write(lpn ftl.LPN, h trace.Hash, now ssd.Time) (ssd.Time, error) {
	d.m.HostWrites++
	d.pool.RecordAccess(h, uint64(lpn))

	oldHash := d.content.Get(int64(lpn))
	hashDone := now + d.lat.Hash

	// As in dvpDevice, the old PPN comes from Bind so GC relocations
	// triggered by the program are observed.
	var done ssd.Time
	var old, bound ssd.PPN
	revived := false
	start := hashDone
	if ppn, ok := d.pool.Lookup(h); ok {
		// Same integrity gate as dvpDevice: a recycled page must pass the
		// RBER estimate and a verify read before it is trusted again.
		vdone, ok, err := d.store.VerifyRevive(ppn, hashDone)
		if err != nil {
			return 0, wrapInterrupted(lpn, err)
		}
		if ok {
			if err := d.store.Revalidate(ppn); err != nil {
				return 0, err
			}
			d.store.AppendBinding(lpn, ppn, true)
			old = d.mapper.Bind(lpn, ppn)
			bound = ppn
			d.m.Revived++
			done = vdone
			revived = true
		} else {
			start = vdone
		}
	}
	if !revived {
		ppn, pdone, err := d.store.Program(start)
		if err != nil {
			return 0, wrapInterrupted(lpn, err)
		}
		d.store.StampOOB(ppn, lpn, h, false)
		old = d.mapper.Bind(lpn, ppn)
		bound = ppn
		done = pdone
	}
	if old != ssd.InvalidPPN {
		if err := d.store.Invalidate(old); err != nil {
			return 0, err
		}
		d.pool.Insert(oldHash, old, uint64(lpn))
	}
	d.content.Set(int64(lpn), h)
	done, err := d.store.MapWrite(lpn, bound, done)
	if err != nil {
		return 0, wrapInterrupted(lpn, err)
	}
	return done, nil
}

// Read implements Device. Reads refresh the recycler's address recency and
// popularity — LX-SSD's read-polluted accounting.
func (d *lxDevice) Read(lpn ftl.LPN, now ssd.Time) (ssd.Time, error) {
	d.m.HostReads++
	ppn, ok := d.mapper.Lookup(lpn)
	if !ok {
		d.m.UnmappedReads++
		return now, nil
	}
	d.pool.RecordAccess(d.content.Get(int64(lpn)), uint64(lpn))
	now, err := d.store.MapRead(lpn, now)
	if err != nil {
		return 0, wrapInterrupted(lpn, err)
	}
	return absorbUncorrectable(d.store.Read(ppn, now))
}

// Metrics implements Device.
func (d *lxDevice) Metrics() DeviceMetrics {
	d.m.GC = d.store.GC()
	d.m.Faults = d.store.FaultStats()
	d.m.Pool = d.pool.Stats()
	d.m.Dftl = d.store.DftlStats()
	busCounts(&d.m, d.bus)
	return d.m
}

// registerTelemetry adds the LX-SSD recycler gauges.
func (d *lxDevice) registerTelemetry(tel *telemetry.Telemetry) {
	tel.RegisterGauge("lx_pool_hit_rate",
		"LX-SSD recycler lookup hit rate", nil,
		func(ssd.Time) float64 { return poolHitRate(d.pool.Stats()) })
	tel.RegisterGauge("lx_recycled_total",
		"host writes short-circuited by the LX recycler", nil,
		func(ssd.Time) float64 { return float64(d.m.Revived) })
}

// Bus exposes the flash timing model for utilization reporting.
func (d *lxDevice) Bus() *ssd.Bus { return d.bus }

// Store exposes the physical store for wear and capacity introspection.
func (d *lxDevice) Store() *ftl.Store { return d.store }
