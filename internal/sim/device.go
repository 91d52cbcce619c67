// Package sim wires the substrates into complete simulated SSDs and runs
// traces through them. It provides the five system configurations the paper
// evaluates — Baseline, MQ-DVP (and its LRU/Infinite pool variants), Dedup,
// DVP+Dedup, and the LX-SSD prior work — behind one Device interface, plus
// a trace Runner that measures per-request latency and flash activity.
//
// Timing follows SSDSim's trace-driven style: requests are serviced in
// arrival order, and queuing delay emerges from the per-chip/per-channel
// occupancy timelines in internal/ssd — a request that lands on a chip busy
// with GC waits for the erase to finish, which is precisely the tail-latency
// effect the paper attacks.
package sim

import (
	"errors"
	"fmt"

	"zombiessd/internal/core"
	"zombiessd/internal/dftl"
	"zombiessd/internal/fault"
	"zombiessd/internal/ftl"
	"zombiessd/internal/health"
	"zombiessd/internal/lxssd"
	"zombiessd/internal/rain"
	"zombiessd/internal/scrub"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
	"zombiessd/internal/trace"
)

// Kind selects the device architecture.
type Kind string

// The evaluated systems (Section V-A "Studied Configurations").
const (
	KindBaseline Kind = "baseline"  // plain page-mapped FTL
	KindDVP      Kind = "dvp"       // dead-value pool on a normal FTL
	KindDedup    Kind = "dedup"     // CAFTL-style deduplication only
	KindDVPDedup Kind = "dvp+dedup" // dead-value pool on a deduplicated FTL
	KindLX       Kind = "lx"        // the LX-SSD prior-work recycler
)

// PoolKind selects the dead-value pool replacement policy for the DVP
// architectures.
type PoolKind string

// Pool policies.
const (
	PoolMQ       PoolKind = "mq"       // the paper's multi-queue design
	PoolLRU      PoolKind = "lru"      // single-queue strawman
	PoolInfinite PoolKind = "infinite" // the Ideal upper bound
	// PoolAdaptive is the paper's future-work extension: an MQ pool whose
	// capacity self-tunes to the workload (see core.AdaptivePool).
	PoolAdaptive PoolKind = "adaptive"
)

// Config assembles one simulated device.
type Config struct {
	Geometry ssd.Geometry
	Latency  ssd.Latency
	Store    ftl.StoreConfig

	// LogicalPages is the host-visible address-space size in 4 KB pages.
	// It must not exceed the geometry's exported capacity.
	LogicalPages int64

	Kind     Kind
	PoolKind PoolKind      // DVP architectures only; default PoolMQ
	MQ       core.MQConfig // used when PoolKind == PoolMQ
	// LRUCapacity is the entry budget when PoolKind == PoolLRU.
	LRUCapacity int
	// Adaptive is used when PoolKind == PoolAdaptive.
	Adaptive core.AdaptiveConfig
	LX       lxssd.Config // used when Kind == KindLX

	// HotColdStreams steers writes of popular values to a separate write
	// stream (and GC relocations to a third), so short-lived pages never
	// share blocks with long-lived ones — multi-streamed-SSD style
	// lifetime separation. Applies to the baseline and DVP architectures.
	HotColdStreams bool

	// WriteBufferPages interposes a DRAM write-back buffer of that many
	// 4 KB pages in front of the device (0 = none): writes acknowledge
	// from RAM and reach flash on eviction, modeling the host/device
	// caching layer of Section VII.
	WriteBufferPages int

	// Faults is the reliability plan injected into the flash pipeline:
	// program-status failures, erase failures (bad-block retirement) and
	// ECC read retries, optionally wear-scaled, plus the stateful RBER
	// integrity model (Faults.Integrity). The zero value models a perfect
	// drive and leaves every result bit-identical.
	Faults fault.Config

	// Scrub enables the background patrol scrubber (requires
	// Faults.Integrity to be armed — there is nothing to patrol for
	// otherwise). The zero value runs no patrol.
	Scrub scrub.Config

	// Health arms the device health governor: graceful degradation through
	// the healthy → throttled → read-only → dead ladder, driven by free
	// blocks, GC debt, retired blocks and lost pages. The zero value runs
	// ungoverned and bit-identical to earlier builds.
	Health health.Config

	// RAIN arms intra-SSD channel-stripe parity: one page per stripe holds
	// the XOR of the others, uncorrectable reads and die failures repair
	// through stripe reconstruction, and an online daemon rebuilds a dead
	// die's live pages into spare capacity. The zero value builds no
	// tracker, reserves no parity slots and stays bit-identical.
	RAIN rain.Config

	// DFTL arms the flash-resident mapping subsystem: a bounded cached
	// mapping table (CMT) of translation-page frames, misses and dirty
	// evictions charged as real flash operations, and translation pages
	// garbage-collected as a second stream beside data blocks. The zero
	// value keeps the whole mapping in RAM for free and stays
	// bit-identical.
	DFTL dftl.Config

	// Telemetry, when non-nil, is attached to the assembled device: the
	// bus reports every stamped flash operation to it, the store tags GC
	// and ECC work, and the device registers its gauges (queue backlog, GC
	// debt, pool hit rates). Telemetry observes times the simulator
	// already computed and never feeds back, so attaching it cannot change
	// a simulated-time result (pinned by TestNoTelemetryBitIdentity). Nil
	// (the default) observes nothing at zero cost.
	Telemetry *telemetry.Telemetry
}

// DefaultPopularityWeight is the GC victim-score weight experiments use for
// popularity-aware GC: one fully popular garbage page (degree 255) cancels
// one invalid page's worth of greed.
const DefaultPopularityWeight = 4.0 / 255

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Latency.Validate(); err != nil {
		return err
	}
	if err := c.Store.Validate(); err != nil {
		return err
	}
	if c.LogicalPages <= 0 {
		return fmt.Errorf("sim: logical pages must be positive, got %d", c.LogicalPages)
	}
	if c.LogicalPages > c.Geometry.ExportedPages() {
		return fmt.Errorf("sim: %d logical pages exceed exported capacity %d",
			c.LogicalPages, c.Geometry.ExportedPages())
	}
	switch c.Kind {
	case KindBaseline, KindDedup, KindLX:
	case KindDVP, KindDVPDedup:
		switch c.PoolKind {
		case PoolMQ:
			if err := c.MQ.Validate(); err != nil {
				return err
			}
		case PoolLRU:
			if c.LRUCapacity <= 0 {
				return fmt.Errorf("sim: LRU pool capacity must be positive, got %d", c.LRUCapacity)
			}
		case PoolInfinite:
		case PoolAdaptive:
			if err := c.Adaptive.Validate(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("sim: unknown pool kind %q", c.PoolKind)
		}
	default:
		return fmt.Errorf("sim: unknown device kind %q", c.Kind)
	}
	if c.Kind == KindLX {
		if err := c.LX.Validate(); err != nil {
			return err
		}
	}
	if c.WriteBufferPages < 0 {
		return fmt.Errorf("sim: write buffer pages must be ≥ 0, got %d", c.WriteBufferPages)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Scrub.Validate(); err != nil {
		return err
	}
	if c.Scrub.Enabled() && !c.Faults.IntegrityArmed() {
		return fmt.Errorf("sim: the scrubber needs the integrity model armed (set Faults.Integrity.BaseRBER)")
	}
	if err := c.Health.Validate(); err != nil {
		return err
	}
	if err := c.RAIN.Validate(); err != nil {
		return err
	}
	if err := c.DFTL.Validate(); err != nil {
		return err
	}
	return nil
}

// DeviceMetrics counts everything a run reports. Flash counters include GC
// activity; HostPrograms (a method) isolates the host-attributable writes
// the paper's Fig 9 reduction is computed over.
type DeviceMetrics struct {
	HostWrites    int64
	HostReads     int64
	FlashPrograms int64
	FlashReads    int64
	FlashErases   int64

	Revived       int64 // writes short-circuited by a zombie revival
	DedupHits     int64 // writes short-circuited by a live duplicate
	UnmappedReads int64 // reads of never-written pages (served as no-ops)

	BufferAbsorbed int64 // writes absorbed by the DRAM write buffer
	BufferReadHits int64 // reads served from the DRAM write buffer

	// Suspensions counts host reads that preempted an in-flight GC
	// erase/program (0 unless StoreConfig.Preempt enables suspension).
	Suspensions int64

	GC     ftl.GCStats
	Pool   core.PoolStats
	Faults fault.Stats
	Scrub  scrub.Stats
	Rain   rain.Stats
	Dftl   dftl.Stats
}

// ShortCircuited returns the number of writes that required no flash
// program at all.
func (m DeviceMetrics) ShortCircuited() int64 { return m.Revived + m.DedupHits }

// HostPrograms returns flash programs excluding GC relocation traffic —
// the "number of writes" of Figs 9 and 14.
func (m DeviceMetrics) HostPrograms() int64 { return m.FlashPrograms - m.GC.Relocated }

// WriteAmplification returns total flash programs per host-attributable
// program (1.0 = no GC overhead), or 0 when nothing was programmed.
func (m DeviceMetrics) WriteAmplification() float64 {
	host := m.HostPrograms()
	if host == 0 {
		return 0
	}
	return float64(m.FlashPrograms) / float64(host)
}

// Sub returns m minus prev, field-wise; the runner uses it to exclude the
// preconditioning phase from reported metrics.
func (m DeviceMetrics) Sub(prev DeviceMetrics) DeviceMetrics {
	return DeviceMetrics{
		HostWrites:     m.HostWrites - prev.HostWrites,
		HostReads:      m.HostReads - prev.HostReads,
		FlashPrograms:  m.FlashPrograms - prev.FlashPrograms,
		FlashReads:     m.FlashReads - prev.FlashReads,
		FlashErases:    m.FlashErases - prev.FlashErases,
		Revived:        m.Revived - prev.Revived,
		DedupHits:      m.DedupHits - prev.DedupHits,
		UnmappedReads:  m.UnmappedReads - prev.UnmappedReads,
		BufferAbsorbed: m.BufferAbsorbed - prev.BufferAbsorbed,
		BufferReadHits: m.BufferReadHits - prev.BufferReadHits,
		Suspensions:    m.Suspensions - prev.Suspensions,
		GC: ftl.GCStats{
			Runs:           m.GC.Runs - prev.GC.Runs,
			Relocated:      m.GC.Relocated - prev.GC.Relocated,
			Erased:         m.GC.Erased - prev.GC.Erased,
			Background:     m.GC.Background - prev.GC.Background,
			PartialWindows: m.GC.PartialWindows - prev.GC.PartialWindows,
			PartialPages:   m.GC.PartialPages - prev.GC.PartialPages,
		},
		Pool: core.PoolStats{
			Inserts:   m.Pool.Inserts - prev.Pool.Inserts,
			Hits:      m.Pool.Hits - prev.Pool.Hits,
			Misses:    m.Pool.Misses - prev.Pool.Misses,
			Evictions: m.Pool.Evictions - prev.Pool.Evictions,
			Drops:     m.Pool.Drops - prev.Pool.Drops,
			Promoted:  m.Pool.Promoted - prev.Pool.Promoted,
			Demoted:   m.Pool.Demoted - prev.Pool.Demoted,
		},
		Faults: m.Faults.Sub(prev.Faults),
		Scrub:  m.Scrub.Sub(prev.Scrub),
		Rain:   m.Rain.Sub(prev.Rain),
		Dftl:   m.Dftl.Sub(prev.Dftl),
	}
}

// Add returns m plus d, field-wise — the inverse of Sub. The multi-tenant
// engine uses it to accumulate metric deltas into per-tenant totals.
func (m DeviceMetrics) Add(d DeviceMetrics) DeviceMetrics {
	return DeviceMetrics{
		HostWrites:     m.HostWrites + d.HostWrites,
		HostReads:      m.HostReads + d.HostReads,
		FlashPrograms:  m.FlashPrograms + d.FlashPrograms,
		FlashReads:     m.FlashReads + d.FlashReads,
		FlashErases:    m.FlashErases + d.FlashErases,
		Revived:        m.Revived + d.Revived,
		DedupHits:      m.DedupHits + d.DedupHits,
		UnmappedReads:  m.UnmappedReads + d.UnmappedReads,
		BufferAbsorbed: m.BufferAbsorbed + d.BufferAbsorbed,
		BufferReadHits: m.BufferReadHits + d.BufferReadHits,
		Suspensions:    m.Suspensions + d.Suspensions,
		GC: ftl.GCStats{
			Runs:           m.GC.Runs + d.GC.Runs,
			Relocated:      m.GC.Relocated + d.GC.Relocated,
			Erased:         m.GC.Erased + d.GC.Erased,
			Background:     m.GC.Background + d.GC.Background,
			PartialWindows: m.GC.PartialWindows + d.GC.PartialWindows,
			PartialPages:   m.GC.PartialPages + d.GC.PartialPages,
		},
		Pool: core.PoolStats{
			Inserts:   m.Pool.Inserts + d.Pool.Inserts,
			Hits:      m.Pool.Hits + d.Pool.Hits,
			Misses:    m.Pool.Misses + d.Pool.Misses,
			Evictions: m.Pool.Evictions + d.Pool.Evictions,
			Drops:     m.Pool.Drops + d.Pool.Drops,
			Promoted:  m.Pool.Promoted + d.Pool.Promoted,
			Demoted:   m.Pool.Demoted + d.Pool.Demoted,
		},
		Faults: m.Faults.Add(d.Faults),
		Scrub:  m.Scrub.Add(d.Scrub),
		Rain:   m.Rain.Add(d.Rain),
		Dftl:   m.Dftl.Add(d.Dftl),
	}
}

// Device is one simulated SSD processing host requests. Implementations
// are single-goroutine: the runner drives them sequentially, as SSDSim does.
type Device interface {
	// Write stores content with hash h at logical page lpn, arriving at
	// time now; it returns the completion time.
	Write(lpn ftl.LPN, h trace.Hash, now ssd.Time) (ssd.Time, error)

	// Read fetches logical page lpn at time now and returns the
	// completion time. Reads of unwritten pages complete immediately.
	Read(lpn ftl.LPN, now ssd.Time) (ssd.Time, error)

	// Metrics returns the cumulative counters.
	Metrics() DeviceMetrics
}

// NewDevice builds the device selected by cfg.
func NewDevice(cfg Config) (Device, error) {
	if cfg.PoolKind == "" {
		cfg.PoolKind = PoolMQ
	}
	if cfg.HotColdStreams {
		cfg.Store.UserStreams = 2
		cfg.Store.SeparateGCStream = true
	}
	if cfg.Faults.Active() {
		cfg.Store.Faults = cfg.Faults
	}
	if cfg.RAIN.Enabled() {
		cfg.Store.RAIN = cfg.RAIN
	}
	if cfg.DFTL.Enabled() {
		cfg.Store.DFTL = cfg.DFTL
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bus := ssd.NewBus(cfg.Geometry, cfg.Latency)
	store, err := ftl.NewStore(cfg.Store, bus)
	if err != nil {
		return nil, err
	}
	if cfg.LogicalPages > store.UsablePages() {
		return nil, fmt.Errorf("sim: %d logical pages exceed the store's usable capacity %d "+
			"(frontiers and GC reserve shrink it below the exported size)",
			cfg.LogicalPages, store.UsablePages())
	}
	if err := store.AttachCMT(cfg.LogicalPages); err != nil {
		return nil, err
	}
	tel := cfg.Telemetry
	if tel.On() {
		// Wire the observability layer before the first operation: the bus
		// reports every stamped op, the store tags GC/ECC work with its
		// origin. None of it can influence timing — the observer runs after
		// the timeline is already updated.
		store.Tel = tel
		tel.Attach(cfg.Geometry)
		bus.SetObserver(tel)
	}
	var dev Device
	switch cfg.Kind {
	case KindBaseline:
		dev, err = newBaselineDevice(cfg, bus, store)
	case KindDVP:
		dev, err = newDVPDevice(cfg, bus, store)
	case KindDedup, KindDVPDedup:
		dev, err = newDedupDevice(cfg, bus, store)
	case KindLX:
		dev, err = newLXDevice(cfg, bus, store)
	default:
		return nil, fmt.Errorf("sim: unknown device kind %q", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	base := dev
	if cfg.WriteBufferPages > 0 {
		dev, err = newBufferedDevice(dev, cfg.WriteBufferPages, tel)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Scrub.Enabled() || cfg.Store.Preempt.PartialEnabled() || cfg.RAIN.Enabled() || cfg.Health.Enabled() {
		md := &maintDevice{inner: dev, store: store}
		if cfg.Scrub.Enabled() {
			if md.scr, err = scrub.New(cfg.Scrub, store); err != nil {
				return nil, err
			}
		}
		if cfg.Health.Enabled() {
			md.gov = health.New(cfg.Health)
		}
		dev = md
	}
	if tel.On() {
		registerDeviceGauges(tel, dev, bus, store)
		if rt, ok := base.(interface {
			registerTelemetry(*telemetry.Telemetry)
		}); ok {
			rt.registerTelemetry(tel)
		}
	}
	return dev, nil
}

// registerDeviceGauges exposes the architecture-independent health gauges
// of one assembled device: queued flash work, GC debt, free blocks and
// write amplification. Gauges are sampled into the time series on the
// runner's clock and evaluated again at export time.
func registerDeviceGauges(tel *telemetry.Telemetry, dev Device, bus *ssd.Bus, store *ftl.Store) {
	tel.RegisterGauge("flash_backlog_us",
		"flash work queued beyond the current instant, in chip-microseconds", nil,
		func(now ssd.Time) float64 { return float64(bus.Backlog(now)) })
	tel.RegisterGauge("gc_debt_blocks",
		"free blocks GC owes below the per-plane low-water mark", nil,
		func(ssd.Time) float64 { return float64(store.GCDebt()) })
	tel.RegisterGauge("free_blocks",
		"free blocks summed over every plane", nil,
		func(ssd.Time) float64 { return float64(store.TotalFreeBlocks()) })
	tel.RegisterGauge("write_amplification",
		"flash programs per host-attributable program", nil,
		func(ssd.Time) float64 { return dev.Metrics().WriteAmplification() })
	if store.PartialGCEnabled() {
		// Only registered under partial GC so runs without it keep the
		// pre-preemption gauge column set.
		tel.RegisterGauge("gc_drain_backlog_pages",
			"valid pages still awaiting migration in partial-GC drain queues", nil,
			func(ssd.Time) float64 { return float64(store.DrainBacklogPages()) })
	}
	if store.IntegrityArmed() || store.DieFailArmed() {
		// One unified loss gauge: scrub-patrol UECC, host-path UECC and
		// die failure all funnel through the same counter.
		tel.RegisterGauge("lost_pages",
			"pages whose data is currently destroyed and unreconstructed", nil,
			func(ssd.Time) float64 { return float64(store.LostPages()) })
	}
	if store.DftlEnabled() {
		tel.RegisterGauge("dftl_cmt_hit_rate",
			"cached mapping table lookup hit rate", nil,
			func(ssd.Time) float64 { return store.DftlStats().HitRate() })
		tel.RegisterGauge("dftl_trans_programs",
			"translation page programs (write-backs, GC copies, RMWs, checkpoints)", nil,
			func(ssd.Time) float64 { return float64(store.DftlStats().TransPrograms) })
		tel.RegisterGauge("dftl_trans_gc_runs",
			"GC cycles that collected a translation block", nil,
			func(ssd.Time) float64 { return float64(store.DftlStats().TransGCRuns) })
	}
	if store.RainEnabled() {
		tel.RegisterGauge("rain_parity_programs",
			"parity page programs charged by stripe flushes", nil,
			func(ssd.Time) float64 { return float64(store.RainStats().ParityPrograms) })
		tel.RegisterGauge("rain_reconstructed_pages",
			"pages rebuilt from surviving stripe members plus parity", nil,
			func(ssd.Time) float64 { return float64(store.RainStats().ReconstructedPages) })
	}
	if md, ok := dev.(*maintDevice); ok && md.gov != nil {
		// Only registered under the governor so ungoverned runs keep the
		// earlier gauge column set.
		gov := md.gov
		tel.RegisterGauge("health_state",
			"governor ladder position (0 healthy, 1 throttled, 2 read-only, 3 dead)", nil,
			func(ssd.Time) float64 { return float64(gov.State()) })
		tel.RegisterGauge("health_rejected_total",
			"host operations refused by the governor (writes and reads)", nil,
			func(ssd.Time) float64 {
				st := gov.Stats()
				return float64(st.RejectedWrites + st.RejectedReads)
			})
		tel.RegisterGauge("health_throttled_total",
			"host writes that paid the governor's throttle delay", nil,
			func(ssd.Time) float64 { return float64(gov.Stats().ThrottledWrites) })
		tel.RegisterGauge("health_transitions_total",
			"governor ladder transitions", nil,
			func(ssd.Time) float64 { return float64(gov.Stats().Transitions) })
		tel.RegisterGauge("health_retries_total",
			"host-layer retries of transient program faults", nil,
			func(ssd.Time) float64 { return float64(gov.Stats().Retries) })
	}
}

// telemetryOf returns the observability instance wired into dev (through
// its store), or nil when the device has none.
func telemetryOf(dev Device) *telemetry.Telemetry {
	if s := StoreOf(dev); s != nil {
		return s.Telemetry()
	}
	return nil
}

// absorbUncorrectable completes a host read whose page exceeded ECC
// capability: the loss is already counted in the store's fault stats and
// surfaces through the integrity oracle (ReadHash reports the page
// unreadable), so the simulation keeps running — a real host would see an
// I/O error on this request, not a bricked drive.
func absorbUncorrectable(done ssd.Time, err error) (ssd.Time, error) {
	if err != nil && errors.Is(err, ftl.ErrUncorrectable) {
		return done, nil
	}
	return done, err
}

// StoreOf returns the physical store behind dev (unwrapping the DRAM write
// buffer when present), or nil for devices without one. The lifetime
// harness samples wear and usable capacity through it.
func StoreOf(dev Device) *ftl.Store {
	if sr, ok := dev.(interface{ Store() *ftl.Store }); ok {
		return sr.Store()
	}
	return nil
}

// buildPool constructs the configured dead-value pool over ledger.
func buildPool(cfg Config, ledger *core.Ledger) (core.Pool, error) {
	switch cfg.PoolKind {
	case PoolMQ:
		return core.NewMQPool(cfg.MQ, ledger), nil
	case PoolLRU:
		return core.NewLRUPool(cfg.LRUCapacity, ledger), nil
	case PoolInfinite:
		return core.NewInfinitePool(ledger), nil
	case PoolAdaptive:
		return core.NewAdaptivePool(cfg.Adaptive, ledger), nil
	default:
		return nil, fmt.Errorf("sim: unknown pool kind %q", cfg.PoolKind)
	}
}

// busCounts copies the bus counters into m.
func busCounts(m *DeviceMetrics, bus *ssd.Bus) {
	m.FlashReads, m.FlashPrograms, m.FlashErases = bus.Counts()
	m.Suspensions, _ = bus.SuspendStats()
}
