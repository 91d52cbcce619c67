// Package lifetime drives simulated SSDs to end of life. The paper's
// dead-value-pool argument is ultimately a lifetime argument — every
// short-circuited write is a program (and eventually an erase) the flash
// never pays — and this harness turns that into a measurable curve: it
// replays one synthetic workload in repeated epochs under a wear-scaled
// fault plan (fault.Config.WearFactor > 0), so failure probabilities climb
// with every erase a block endures, blocks retire as they wear out, and
// usable capacity decays until the drive can no longer serve its footprint.
//
// Each epoch samples cumulative erases, retired blocks, usable capacity,
// epoch write reduction, write amplification and p99 latency, yielding the
// capacity / write-reduction / p99 vs cumulative-erases series for every
// device architecture (baseline, dedup, DVP, LX-SSD, ideal). A run for one
// device ends at the first of: the usable-capacity floor, the drive
// erroring out of space (or burning every program retry), the erase-budget
// ceiling, or the epoch cap — so every run terminates, which the property
// tests rely on.
//
// Determinism: the trace is generated once from Config.Seed, and all fault
// draws come from the plan's splitmix64 stream, so two runs with equal
// configs produce byte-identical epoch series.
package lifetime

import (
	"errors"
	"fmt"

	"zombiessd/internal/core"
	"zombiessd/internal/fault"
	"zombiessd/internal/ftl"
	"zombiessd/internal/lxssd"
	"zombiessd/internal/scrub"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/stats"
	"zombiessd/internal/trace"
	"zombiessd/internal/workload"
)

// Kind labels the device architectures the harness ages. They mirror the
// evaluation matrix: ideal is the DVP with an infinite pool.
type Kind string

// The aged configurations.
const (
	KindBaseline Kind = "baseline"
	KindDedup    Kind = "dedup"
	KindDVP      Kind = "dvp"
	KindLX       Kind = "lx-ssd"
	KindIdeal    Kind = "ideal"
	// KindDVPUnweighted is the fault-weight ablation arm: the DVP with
	// fault-aware victim scoring disabled, everything else equal.
	KindDVPUnweighted Kind = "dvp-w0"
)

// AllKinds returns the five standard architectures (without the ablation
// arm), in the matrix order.
func AllKinds() []Kind {
	return []Kind{KindBaseline, KindDedup, KindDVP, KindLX, KindIdeal}
}

// StopCause names why a device's run ended.
type StopCause string

// Stop causes, from most to least terminal.
const (
	// StopNoSpace: the drive errored out of free pages mid-epoch — it can
	// no longer hold the footprint. The final sample is partial.
	StopNoSpace StopCause = "no-space"
	// StopProgramFault: a program burned every retry attempt mid-epoch.
	// The final sample is partial.
	StopProgramFault StopCause = "program-fault"
	// StopCapacityFloor: usable capacity fell below the configured
	// fraction of its initial value at an epoch boundary.
	StopCapacityFloor StopCause = "capacity-floor"
	// StopEraseBudget: cumulative erases reached the budget ceiling.
	StopEraseBudget StopCause = "erase-budget"
	// StopMaxEpochs: the epoch cap ended a drive that outlived the plan.
	StopMaxEpochs StopCause = "max-epochs"
)

// Dead reports whether the cause means the device actually failed (rather
// than the harness running out of budget or patience).
func (c StopCause) Dead() bool {
	return c == StopNoSpace || c == StopProgramFault || c == StopCapacityFloor
}

// DefaultGCFaultWeight is the fault-penalty victim-score weight the DVP
// arms use unless overridden: one program failure cancels one invalid
// page's worth of greed.
const DefaultGCFaultWeight = 1.0

// defaultBudgetCycles sizes the derived erase budget: average erase cycles
// per physical block before the harness stops a run that refuses to die.
const defaultBudgetCycles = 400

// Config parameterizes one drive-to-death run. Every device kind replays
// the same trace under the same plan, so the series are directly
// comparable.
type Config struct {
	// Workload names the synthetic workload profile ("web", "mail", …).
	Workload string
	// RequestsPerEpoch is the trace length replayed each epoch.
	RequestsPerEpoch int64
	// Seed drives workload generation (and, via Faults.Seed when left
	// zero, the fault stream).
	Seed int64
	// Utilization is the footprint : exported-capacity ratio.
	Utilization float64
	// PoolEntries sizes the dead-value pool (and LX recycler) arms.
	PoolEntries int

	// Kinds selects the architectures to age; nil means AllKinds plus the
	// fault-weight ablation arm when GCFaultWeight > 0.
	Kinds []Kind

	// Faults is the wear-scaled fault plan. WearFactor > 0 is what makes
	// this a lifetime experiment: young blocks almost never fail, cycled
	// ones fail increasingly often. A zero Faults is replaced by
	// DefaultFaultPlan(Seed).
	Faults fault.Config

	// Scrub runs the background patrol scrubber while the drive ages;
	// requires Faults.Integrity to be armed. Zero leaves it off.
	Scrub scrub.Config

	// CapacityFloorFrac declares the drive dead when usable capacity falls
	// below this fraction of its initial value. 0 means 0.92 — at the
	// paper-style 15% over-provisioning, losing ~8% of usable pages
	// already puts steady-state GC near collapse.
	CapacityFloorFrac float64
	// EraseBudget caps cumulative post-precondition erases per device;
	// 0 derives total blocks × 400 cycles.
	EraseBudget int64
	// MaxEpochs caps the epochs per device; 0 means 48.
	MaxEpochs int

	// GCFaultWeight is ftl.StoreConfig.FaultPenaltyWeight for the DVP
	// arms (the weight the ablation arm zeroes). Negative disables it;
	// 0 means DefaultGCFaultWeight.
	GCFaultWeight float64
	// DrainSuspects enables suspect-draining victim selection on the DVP
	// arms alongside the fault penalty.
	DrainSuspects bool
}

// DefaultFaultPlan returns the wear-out plan the harness uses when the
// caller supplies none: modest fresh-drive rates that the wear factor
// amplifies roughly 10× by 20 erase cycles, plus suspect-based retirement,
// so drives die by capacity loss within tens of epochs at reduced scale.
func DefaultFaultPlan(seed int64) fault.Config {
	return fault.Config{
		Seed:             seed,
		ProgramFailProb:  4e-4,
		EraseFailProb:    4e-4,
		ReadFailProb:     1e-3,
		WearFactor:       0.5,
		SuspectThreshold: 4,
	}
}

// DefaultConfig returns the reduced-scale run zombiectl uses unless
// overridden.
func DefaultConfig() Config {
	return Config{
		Workload:         "web",
		RequestsPerEpoch: 60_000,
		Seed:             1,
		Utilization:      0.85,
		PoolEntries:      20_000,
	}
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if !c.Faults.Enabled() {
		// Keep any armed integrity model: the caller may want decay (and
		// the patrol) on top of the default wear plan.
		integ := c.Faults.Integrity
		c.Faults = DefaultFaultPlan(c.Seed)
		c.Faults.Integrity = integ
	}
	if c.CapacityFloorFrac == 0 {
		c.CapacityFloorFrac = 0.92
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 48
	}
	switch {
	case c.GCFaultWeight < 0:
		c.GCFaultWeight = 0
	case c.GCFaultWeight == 0:
		c.GCFaultWeight = DefaultGCFaultWeight
	}
	if c.Kinds == nil {
		c.Kinds = AllKinds()
		if c.GCFaultWeight > 0 {
			c.Kinds = append(c.Kinds, KindDVPUnweighted)
		}
	}
	return c
}

// Validate reports whether the (defaults-resolved) config is usable.
func (c Config) Validate() error {
	if _, ok := workload.ProfileByName(c.Workload); !ok {
		return fmt.Errorf("lifetime: unknown workload %q", c.Workload)
	}
	if c.RequestsPerEpoch < 100 {
		return fmt.Errorf("lifetime: need ≥ 100 requests per epoch, got %d", c.RequestsPerEpoch)
	}
	if c.Utilization <= 0 || c.Utilization >= 1 {
		return fmt.Errorf("lifetime: utilization must be in (0,1), got %g", c.Utilization)
	}
	if c.PoolEntries <= 0 {
		return fmt.Errorf("lifetime: pool entries must be positive, got %d", c.PoolEntries)
	}
	if c.CapacityFloorFrac < 0 || c.CapacityFloorFrac >= 1 {
		return fmt.Errorf("lifetime: capacity floor fraction must be in [0,1), got %g", c.CapacityFloorFrac)
	}
	if c.EraseBudget < 0 {
		return fmt.Errorf("lifetime: erase budget must be ≥ 0, got %d", c.EraseBudget)
	}
	if c.MaxEpochs < 1 {
		return fmt.Errorf("lifetime: max epochs must be ≥ 1, got %d", c.MaxEpochs)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Scrub.Validate(); err != nil {
		return err
	}
	if c.Scrub.Enabled() && !c.Faults.IntegrityArmed() {
		return fmt.Errorf("lifetime: scrubbing needs the integrity model armed (set Faults.Integrity.BaseRBER)")
	}
	return nil
}

// Sample is one epoch's measurement of one aging device. Cumulative fields
// count from the end of preconditioning; epoch fields cover this epoch
// only.
type Sample struct {
	Epoch         int   // 1-based
	CumHostWrites int64 // host writes served so far
	CumErases     int64 // flash erases paid so far
	RetiredBlocks int64 // blocks retired as bad so far (whole life)
	UsablePages   int64 // capacity the drive can still offer
	CapacityPct   float64
	WriteRedPct   float64 // epoch short-circuited writes / host writes
	WA            float64 // epoch write amplification
	P99           int64   // epoch p99 request latency, µs
	Partial       bool    // epoch aborted mid-way by device death
}

// Series is the recorded life of one device kind.
type Series struct {
	Kind    Kind
	Samples []Sample
	Cause   StopCause
	// CumHostWrites and CumErases are the totals at the end of the run —
	// the "work served before death" the end-of-life comparisons use.
	CumHostWrites int64
	CumErases     int64
}

// Result is one full drive-to-death run across device kinds.
type Result struct {
	Config        Config // with defaults resolved
	Footprint     int64  // logical pages the trace touches
	InitialUsable int64  // usable pages of the fresh drive
	CapacityFloor int64  // pages; below this the drive is dead
	EraseBudget   int64  // resolved ceiling
	Series        []Series
}

// Run ages every configured device kind to death (or budget) and returns
// the per-epoch series.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, _ := workload.ProfileByName(cfg.Workload)
	recs, err := workload.Generate(p, cfg.RequestsPerEpoch, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var footprint int64
	for _, r := range recs {
		if int64(r.LBA) >= footprint {
			footprint = int64(r.LBA) + 1
		}
	}
	res := &Result{Config: cfg, Footprint: footprint}
	for _, k := range cfg.Kinds {
		ser, usable, budget, err := runKind(cfg, k, recs, footprint)
		if err != nil {
			return nil, fmt.Errorf("lifetime: %s: %w", k, err)
		}
		res.InitialUsable = usable
		res.CapacityFloor = int64(cfg.CapacityFloorFrac * float64(usable))
		res.EraseBudget = budget
		res.Series = append(res.Series, ser)
	}
	return res, nil
}

// deviceConfig assembles the sim.Config for one architecture arm.
func (c Config) deviceConfig(k Kind, footprint int64) (sim.Config, error) {
	store := ftl.StoreConfig{GCFreeBlockThreshold: 2}
	cfg := sim.Config{
		Geometry:     sim.GeometryFor(footprint, c.Utilization),
		Latency:      ssd.PaperLatency(),
		LogicalPages: footprint,
		PoolKind:     sim.PoolMQ,
		MQ:           core.MQConfig{Queues: 8, Capacity: c.PoolEntries, DefaultLifetime: 8192},
		LRUCapacity:  c.PoolEntries,
		LX:           lxssd.Config{Capacity: c.PoolEntries, MinPopularity: 0},
		Faults:       c.Faults,
		Scrub:        c.Scrub,
	}
	switch k {
	case KindBaseline:
		cfg.Kind = sim.KindBaseline
	case KindDedup:
		cfg.Kind = sim.KindDedup
	case KindLX:
		cfg.Kind = sim.KindLX
	case KindDVP, KindIdeal, KindDVPUnweighted:
		cfg.Kind = sim.KindDVP
		store.PopularityWeight = sim.DefaultPopularityWeight
		if k == KindIdeal {
			cfg.PoolKind = sim.PoolInfinite
		}
		if k != KindDVPUnweighted {
			store.FaultPenaltyWeight = c.GCFaultWeight
			store.DrainSuspects = c.DrainSuspects
		}
	default:
		return sim.Config{}, fmt.Errorf("unknown kind %q", k)
	}
	cfg.Store = store
	return cfg, nil
}

// causeOf maps a device error to its stop cause, or "" for unexpected
// errors the harness should propagate.
func causeOf(err error) StopCause {
	switch {
	case errors.Is(err, ftl.ErrNoSpace):
		return StopNoSpace
	case errors.Is(err, ftl.ErrProgramFault):
		return StopProgramFault
	}
	return ""
}

// runKind ages one device: precondition the footprint, then replay the
// trace epoch after epoch on a monotonically advancing clock until a stop
// condition fires.
func runKind(cfg Config, k Kind, recs []trace.Record, footprint int64) (Series, int64, int64, error) {
	devCfg, err := cfg.deviceConfig(k, footprint)
	if err != nil {
		return Series{}, 0, 0, err
	}
	dev, err := sim.NewDevice(devCfg)
	if err != nil {
		return Series{}, 0, 0, err
	}
	store := sim.StoreOf(dev)
	if store == nil {
		return Series{}, 0, 0, fmt.Errorf("device exposes no store")
	}
	initialUsable := store.UsablePages()
	floor := int64(cfg.CapacityFloorFrac * float64(initialUsable))
	budget := cfg.EraseBudget
	if budget == 0 {
		budget = int64(devCfg.Geometry.TotalBlocks()) * defaultBudgetCycles
	}

	ser := Series{Kind: k}
	// Untimed preconditioning fill; a drive that dies here is reported
	// with an empty series rather than an error, so aggressive fault plans
	// (the property tests randomize them) still terminate cleanly.
	var clock ssd.Time
	for lpn := int64(0); lpn < footprint; lpn++ {
		done, werr := dev.Write(ftl.LPN(lpn), sim.PreconditionHash(lpn), 0)
		if werr != nil {
			if cause := causeOf(werr); cause != "" {
				ser.Cause = cause
				return ser, initialUsable, budget, nil
			}
			return ser, 0, 0, fmt.Errorf("precondition write %d: %w", lpn, werr)
		}
		if done > clock {
			clock = done
		}
	}
	clock += ssd.Millisecond
	base := dev.Metrics()
	prev := base

	for epoch := 1; ; epoch++ {
		var hist stats.Histogram
		var died StopCause
		epochEnd := clock
		for i, rec := range recs {
			arrival := clock + ssd.Time(rec.Time)
			var done ssd.Time
			var rerr error
			switch rec.Op {
			case trace.OpWrite:
				done, rerr = dev.Write(ftl.LPN(int64(rec.LBA)), rec.Hash, arrival)
			case trace.OpRead:
				done, rerr = dev.Read(ftl.LPN(int64(rec.LBA)), arrival)
			default:
				return ser, 0, 0, fmt.Errorf("record %d has unknown op %v", i, rec.Op)
			}
			if rerr != nil {
				died = causeOf(rerr)
				if died == "" {
					return ser, 0, 0, fmt.Errorf("epoch %d record %d: %w", epoch, i, rerr)
				}
				break
			}
			hist.Add(int64(done - arrival))
			if done > epochEnd {
				epochEnd = done
			}
			if arrival > epochEnd {
				epochEnd = arrival
			}
		}
		cum := dev.Metrics().Sub(base)
		em := dev.Metrics().Sub(prev)
		prev = dev.Metrics()
		usable := store.UsablePagesNow()
		s := Sample{
			Epoch:         epoch,
			CumHostWrites: cum.HostWrites,
			CumErases:     cum.FlashErases,
			RetiredBlocks: store.FaultStats().RetiredBlocks,
			UsablePages:   usable,
			CapacityPct:   100 * float64(usable) / float64(initialUsable),
			WA:            em.WriteAmplification(),
			P99:           hist.P99(),
			Partial:       died != "",
		}
		if em.HostWrites > 0 {
			s.WriteRedPct = 100 * float64(em.ShortCircuited()) / float64(em.HostWrites)
		}
		ser.Samples = append(ser.Samples, s)
		ser.CumHostWrites = cum.HostWrites
		ser.CumErases = cum.FlashErases
		switch {
		case died != "":
			ser.Cause = died
		case usable < floor:
			ser.Cause = StopCapacityFloor
		case cum.FlashErases >= budget:
			ser.Cause = StopEraseBudget
		case epoch >= cfg.MaxEpochs:
			ser.Cause = StopMaxEpochs
		default:
			clock = epochEnd + ssd.Millisecond
			continue
		}
		return ser, initialUsable, budget, nil
	}
}

// SeriesByKind returns the series for k, if present.
func (r *Result) SeriesByKind(k Kind) (Series, bool) {
	for _, s := range r.Series {
		if s.Kind == k {
			return s, true
		}
	}
	return Series{}, false
}
