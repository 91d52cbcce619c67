// Package experiments regenerates every table and figure of the paper's
// evaluation from synthetic traces: the characterization studies (Figs 1–6),
// the configuration tables (Tables I–II) and the full-simulation results
// (Figs 9–12, 14–15). Each experiment is registered under the paper's
// artifact id ("fig9", "table2", …) and renders the same rows/series the
// paper reports.
//
// Scaling: the FIU traces run to millions of requests against 100K–1M-entry
// pools. Experiments here default to a few hundred thousand requests, and
// pool capacities given in "paper entries" are scaled by
// Requests/PaperRequests so the pool:trace ratio — which is what determines
// hit rates — matches the paper's.
package experiments

import (
	"fmt"

	"zombiessd/internal/core"
	"zombiessd/internal/dftl"
	"zombiessd/internal/fault"
	"zombiessd/internal/ftl"
	"zombiessd/internal/health"
	"zombiessd/internal/lxssd"
	"zombiessd/internal/rain"
	"zombiessd/internal/scrub"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
)

// PaperRequests approximates the per-trace request count of the paper's
// evaluation; pool capacities scale relative to it.
const PaperRequests = 4_000_000

// Options control the scale of every experiment.
type Options struct {
	// Requests per workload (per day for the multi-day studies).
	Requests int64
	// Days for the per-day figures (1 and 5).
	Days int
	// Seed drives all workload generation.
	Seed int64
	// Utilization is the footprint : exported-capacity ratio of the
	// simulated drives; higher means more GC pressure.
	Utilization float64
	// Faults is the reliability plan applied to every simulated device.
	// The zero value (the default) models perfect drives, keeping all
	// paper figures bit-identical.
	Faults fault.Config
	// CrashPoints is the number of sudden-power-loss points the crash
	// sweep injects per architecture; 0 uses the sweep's default (32).
	CrashPoints int
	// CrashSeed drives crash-point placement, independently of Seed so
	// the same workload can be swept at different op indices.
	CrashSeed int64
	// GCFaultWeight is the fault-aware GC victim-score weight
	// (ftl.StoreConfig.FaultPenaltyWeight) applied to every simulated
	// device: victims lose weight × accumulated program failures of greed,
	// steering relocation onto trustworthy flash. The default 0 keeps all
	// victim choices — and so every paper figure — bit-identical; the
	// lifetime experiment substitutes its own default and carries a
	// weight-0 ablation arm.
	GCFaultWeight float64
	// Scrub is the background-patrol plan applied to every simulated
	// device. The zero value (the default) disables scrubbing, keeping all
	// paper figures bit-identical; the scrubsweep experiment substitutes
	// its own default interval and carries a scrub-off control arm.
	Scrub scrub.Config
	// Jobs bounds the worker goroutines RunMatrix and every sweep spread
	// their cells across; 0 (the default) uses GOMAXPROCS. Results are
	// byte-identical for every value — cells are independent simulations
	// and results are keyed by cell, not ordered by completion.
	Jobs int
	// TenantSpec, when non-empty, replaces the tenantsweep experiment's
	// built-in 1→8 tenant-count ladder with an explicit tenant set in the
	// sim.ParseTenants grammar (the -tenants flag).
	TenantSpec string
	// QoSPolicies is the comma-separated arbiter list the tenantsweep
	// crosses its cells with (the -qos flag); empty means "fifo,wrr".
	QoSPolicies string
	// QueueDepth is the default per-tenant queue-depth bound for
	// multi-tenant runs (the -qd flag); 0 lets the tenantsweep pick its
	// own default.
	QueueDepth int
	// GCPreempt is the preemptible-GC policy (ftl.StoreConfig.Preempt)
	// applied to every simulated device: idle-window partial victim
	// drains, read-over-GC suspension and multi-victim lookahead. The zero
	// value (the default) keeps GC blocking and every paper figure
	// bit-identical; the gcsweep experiment crosses its own policy arms.
	GCPreempt ftl.PreemptConfig
	// Telemetry, when Enabled, attaches a fresh observability instance
	// (metrics registry, latency attribution, timeline tracer) to every
	// simulated matrix device. Each cell gets its own instance, so
	// parallel arms share nothing; instances are retained on the Matrix
	// for export. The zero value observes nothing and keeps every counter
	// bit-identical.
	Telemetry telemetry.Config
	// Health is the device health-governor plan (sim.Config.Health)
	// applied to every simulated device: GC-debt write throttling, the
	// free-block read-only floor, dead-drive thresholds and host-layer
	// retries of transient program faults. The zero value (the default)
	// leaves devices ungoverned and every paper figure bit-identical; the
	// chaossweep experiment substitutes its own governed default.
	Health health.Config
	// Rain is the intra-SSD RAIN parity plan (sim.Config.RAIN) applied to
	// every simulated device: XOR parity striping across channels with
	// stripe reconstruction of unreadable pages. The zero value (the
	// default) builds no parity tracker and keeps every paper figure
	// bit-identical; the rainsweep experiment crosses its own parity
	// on/off arms.
	Rain rain.Config
	// ChaosCycles is the number of crash→recover→continue cycles the
	// chaos soak injects per architecture; 0 uses the soak's default (6).
	ChaosCycles int
	// ChaosSeed drives crash placement inside the chaos soak,
	// independently of Seed and CrashSeed.
	ChaosSeed int64
	// Dftl is the flash-resident mapping plan (sim.Config.DFTL) applied to
	// every simulated device: the page map lives in translation pages on
	// flash with a bounded LRU cache of resident frames, and translation
	// blocks are garbage-collected as a second stream. The zero value (the
	// default) keeps the map in free RAM and every paper figure
	// bit-identical; the dftlsweep experiment crosses its own CMT-size
	// arms.
	Dftl dftl.Config
	// PaperGeometry, when true, runs every simulated device on the paper's
	// full Table I 1 TB drive instead of the footprint-scaled default.
	// Per-page host state is chunked sparse arrays, so only the touched
	// footprint costs RAM and the big drive fits a CI runner.
	PaperGeometry bool
}

// DefaultOptions returns the scale used by `zombiectl` unless overridden:
// 600K requests per workload, three days for the day studies.
func DefaultOptions() Options {
	return Options{Requests: 600_000, Days: 3, Seed: 1, Utilization: 0.75}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Requests < 1000 {
		return fmt.Errorf("experiments: need at least 1000 requests, got %d", o.Requests)
	}
	if o.Days < 1 {
		return fmt.Errorf("experiments: days must be ≥ 1, got %d", o.Days)
	}
	if o.Utilization <= 0 || o.Utilization >= 1 {
		return fmt.Errorf("experiments: utilization must be in (0,1), got %g", o.Utilization)
	}
	if o.GCFaultWeight < 0 {
		return fmt.Errorf("experiments: GC fault weight must be ≥ 0, got %g", o.GCFaultWeight)
	}
	if o.CrashPoints < 0 {
		return fmt.Errorf("experiments: crash points must be ≥ 0, got %d", o.CrashPoints)
	}
	if o.CrashSeed < 0 {
		return fmt.Errorf("experiments: crash seed must be ≥ 0, got %d", o.CrashSeed)
	}
	if err := o.Faults.Validate(); err != nil {
		return err
	}
	if err := o.Scrub.Validate(); err != nil {
		return err
	}
	if o.Scrub.Enabled() && !o.Faults.IntegrityArmed() {
		return fmt.Errorf("experiments: scrubbing needs the integrity model armed (set Faults.Integrity.BaseRBER)")
	}
	if o.Jobs < 0 {
		return fmt.Errorf("experiments: jobs must be ≥ 0 (0 = all cores), got %d", o.Jobs)
	}
	if o.TenantSpec != "" {
		if _, err := sim.ParseTenants(o.TenantSpec); err != nil {
			return err
		}
	}
	if o.QoSPolicies != "" {
		if _, err := sim.ParseArbiterList(o.QoSPolicies); err != nil {
			return err
		}
	}
	if o.QueueDepth < 0 {
		return fmt.Errorf("experiments: queue depth must be ≥ 0, got %d", o.QueueDepth)
	}
	if err := o.GCPreempt.Validate(); err != nil {
		return err
	}
	if err := o.Telemetry.Validate(); err != nil {
		return err
	}
	if err := o.Health.Validate(); err != nil {
		return err
	}
	if err := o.Rain.Validate(); err != nil {
		return err
	}
	if o.ChaosCycles < 0 {
		return fmt.Errorf("experiments: chaos cycles must be ≥ 0, got %d", o.ChaosCycles)
	}
	if o.ChaosSeed < 0 {
		return fmt.Errorf("experiments: chaos seed must be ≥ 0, got %d", o.ChaosSeed)
	}
	if err := o.Dftl.Validate(); err != nil {
		return err
	}
	return nil
}

// ScaleEntries converts a pool capacity expressed in the paper's entries
// (e.g. 200_000) to this run's scale, with a floor that keeps tiny test
// runs meaningful.
func (o Options) ScaleEntries(paperEntries int) int {
	scaled := int(int64(paperEntries) * o.Requests / PaperRequests)
	if scaled < 64 {
		scaled = 64
	}
	return scaled
}

// scaled returns o with Requests shrunk by divisor for a sweep that pays
// many full replays, floored so each replay still exercises what the sweep
// measures, and never above o.Requests.
func (o Options) scaled(divisor, floor int64) Options {
	s := o
	s.Requests = min(max(o.Requests/divisor, floor), o.Requests)
	return s
}

// deviceConfig assembles the sim.Config shared by every full-simulation
// experiment for a workload with the given footprint.
func (o Options) deviceConfig(kind sim.Kind, footprint int64, poolKind sim.PoolKind, paperEntries int) sim.Config {
	entries := o.ScaleEntries(paperEntries)
	geo := sim.GeometryFor(footprint, o.Utilization)
	if o.PaperGeometry {
		geo = ssd.PaperGeometry()
	}
	return sim.Config{
		Geometry: geo,
		Latency:  ssd.PaperLatency(),
		Store: ftl.StoreConfig{
			GCFreeBlockThreshold: 2,
			PopularityWeight:     popularityWeightFor(kind),
			FaultPenaltyWeight:   o.GCFaultWeight,
			Preempt:              o.GCPreempt,
		},
		LogicalPages: footprint,
		Kind:         kind,
		PoolKind:     poolKind,
		MQ:           core.MQConfig{Queues: 8, Capacity: entries, DefaultLifetime: 8192},
		LRUCapacity:  entries,
		LX:           lxssd.Config{Capacity: entries, MinPopularity: 0},
		Faults:       o.Faults,
		Scrub:        o.Scrub,
		Health:       o.Health,
		RAIN:         o.Rain,
		DFTL:         o.Dftl,
	}
}

// popularityWeightFor enables popularity-aware GC only for the DVP
// architectures, per Section IV-D; baseline, dedup-only and LX keep greedy
// GC.
func popularityWeightFor(kind sim.Kind) float64 {
	switch kind {
	case sim.KindDVP, sim.KindDVPDedup:
		return sim.DefaultPopularityWeight
	default:
		return 0
	}
}
