package experiments

import (
	"fmt"

	"zombiessd/internal/ftl"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
)

// ------------------------------------------------------ preemptible-GC sweep --

// The gcsweep asks the tail-latency question behind preemptible GC: how
// much of the read tail is host requests stuck behind garbage collection,
// and how much of it do idle-window partial drains and read-over-GC
// suspension claw back? It crosses four GC policies — blocking
// (foreground-only), soft (idle-window background cycles), partial
// (resumable k-page drains) and partial+susp (drains plus erase/program
// suspension) — with the five device architectures on the mail workload,
// reading p99/p99.9 read latency and the gc-blocked attribution phase off
// a per-cell telemetry instance. A multi-tenant arm reruns the
// tenantsweep's antagonist pair (mail victim vs 4×-rate trans antagonist)
// under the blocking and partial+susp policies, showing the antagonist's
// GC no longer inflates the victim's tail.

// gcSweepDivisor shrinks each cell's trace relative to Options.Requests
// (the sweep replays the trace once per cell); the floor keeps enough GC
// cycles in tiny smoke runs for the tail to mean something.
const gcSweepDivisor = 8

const gcSweepFloor = 24_000

// Default policy knobs for the sweep's partial/suspension arms, used when
// the -gc-* flags don't arm a policy of their own.
const (
	// DefaultGCPartialK bounds valid-page migrations per idle window.
	DefaultGCPartialK = 8
	// DefaultGCLookahead is the victims pre-selected per scoring scan.
	DefaultGCLookahead = 2
	// DefaultGCMaxSuspends bounds host-read suspensions per GC op.
	DefaultGCMaxSuspends = 4
	// DefaultGCSoftThreshold is the soft arm's background-GC trigger.
	DefaultGCSoftThreshold = 4
)

// gcSweepUtilization is the footprint : exported-capacity ratio of the
// sweep's drives. The generic matrix default (0.75) barely exercises GC at
// sweep scale; tail-latency policies only separate when foreground GC is a
// steady presence, so the sweep always runs its drives this full.
const gcSweepUtilization = 0.88

// gcSweepGeometry sizes a deliberately small, busy drive for the sweep: a
// 4×2-chip, 16-plane layout whose block count scales with the footprint so
// utilization stays at gcSweepUtilization even at smoke scale (the generic
// sim.GeometryFor floor would balloon a small footprint into an idle
// drive). Less chip parallelism means host reads actually land behind GC —
// the contention preemption is meant to relieve — while staying clear of
// outright saturation at the mail workload's arrival rate.
func gcSweepGeometry(footprintPages int64) ssd.Geometry {
	g := ssd.Geometry{
		Channels:        4,
		ChipsPerChannel: 2,
		DiesPerChip:     1,
		PlanesPerDie:    2,
		PageSize:        4096,
		OverProvision:   0.15,
	}
	planes := int64(g.TotalChips() * g.PlanesPerChip())
	pagesNeeded := float64(footprintPages) / (gcSweepUtilization * (1 - g.OverProvision))
	for _, ppb := range []int{128, 64, 32, 16} {
		g.PagesPerBlock = ppb
		bpp := int(pagesNeeded/float64(planes*int64(ppb))) + 1
		if bpp >= 16 {
			g.BlocksPerPlane = bpp
			return g
		}
	}
	g.PagesPerBlock = 16
	g.BlocksPerPlane = 16
	return g
}

// GCPolicyArm is one GC policy configuration of the sweep.
type GCPolicyArm struct {
	Name    string
	Soft    int // ftl.StoreConfig.SoftGCThreshold
	Preempt ftl.PreemptConfig
}

// gcPolicyArms builds the four policy arms. The partial arms start from
// Options.GCPreempt so explicit -gc-* flags steer the sweep, with the
// sweep's defaults filling whatever the flags leave disarmed; the partial
// (no-suspension) arm always strips the suspension knobs so the two arms
// differ in exactly one mechanism.
func gcPolicyArms(base ftl.PreemptConfig) []GCPolicyArm {
	if !base.PartialEnabled() {
		base.PartialK = DefaultGCPartialK
		base.Lookahead = DefaultGCLookahead
	}
	partial := base
	partial.MaxSuspends, partial.SuspendCost, partial.ResumeCost = 0, 0, 0
	susp := base
	if !susp.SuspendEnabled() {
		susp.MaxSuspends = DefaultGCMaxSuspends
	}
	return []GCPolicyArm{
		{Name: "blocking"},
		{Name: "soft", Soft: DefaultGCSoftThreshold},
		{Name: "partial", Preempt: partial},
		{Name: "partial+susp", Preempt: susp},
	}
}

// GCCell is one (architecture, policy) cell of the single-tenant sweep.
type GCCell struct {
	Arch   string
	Policy string

	// Read-tail metrics from the cell's latency attribution (µs).
	ReadP99  int64
	ReadP999 int64

	// GCBlockedUS is the total gc-blocked attribution across every host
	// request; GCBlockedShare is its fraction of total end-to-end latency.
	GCBlockedUS    int64
	GCBlockedShare float64

	// GC machinery counters for the cell.
	Runs           int64 // victim cycles started (foreground + background + drains)
	Relocated      int64 // valid pages migrated
	PartialWindows int64 // idle windows that advanced a drain
	PartialPages   int64 // pages migrated inside those windows
	Suspensions    int64 // host reads that preempted an in-flight GC op
}

// GCTenantCell is one antagonist-arm cell: the victim/antagonist pair
// under one GC policy.
type GCTenantCell struct {
	Policy  string
	Tenants []sim.TenantResult
}

// GCsweepResult is the rendered outcome of RunGCsweep.
type GCsweepResult struct {
	Workload string
	Requests int64
	Seed     int64
	Policies []string
	Cells    []GCCell
	Antag    []GCTenantCell
}

// gcCellTelemetry builds the per-cell observability instance: registry and
// attribution live, tracer off (the sweep only reads histograms and phase
// sums, and cells are many).
func gcCellTelemetry() *telemetry.Telemetry {
	return telemetry.New(telemetry.Config{Enabled: true, TraceCap: -1})
}

// RunGCsweep crosses the four GC policies with the five architectures on
// the mail workload, plus the antagonist pair under the bracketing
// policies. Cells are independent simulations spread across Options.Jobs
// workers and keyed by index, so the output is byte-identical for every
// worker count.
func RunGCsweep(o Options) (*GCsweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	small := o.scaled(gcSweepDivisor, gcSweepFloor)
	const workloadName = "mail"
	recs, footprint, err := small.traceFor(workloadName)
	if err != nil {
		return nil, err
	}
	arms := gcPolicyArms(o.GCPreempt)

	type cellSpec struct {
		arch string
		kind sim.Kind
		arm  GCPolicyArm
	}
	var cells []cellSpec
	for _, a := range tenantArchKinds {
		for _, arm := range arms {
			cells = append(cells, cellSpec{arch: a.name, kind: a.kind, arm: arm})
		}
	}
	// Antagonist arm: the bracketing policies only — the question is
	// whether preemption restores isolation, not the full policy ladder.
	antagArms := []GCPolicyArm{arms[0], arms[len(arms)-1]}

	configFor := func(kind sim.Kind, arm GCPolicyArm, fp int64) sim.Config {
		cfg := small.deviceConfig(kind, fp, sim.PoolMQ, 200_000)
		cfg.Geometry = gcSweepGeometry(fp)
		cfg.Store.SoftGCThreshold = arm.Soft
		cfg.Store.Preempt = arm.Preempt
		return cfg
	}

	runCell := func(c cellSpec) (GCCell, error) {
		cfg := configFor(c.kind, c.arm, footprint)
		tel := gcCellTelemetry()
		cfg.Telemetry = tel
		dev, err := sim.NewDevice(cfg)
		if err != nil {
			return GCCell{}, err
		}
		res, err := sim.Run(dev, recs, sim.RunOptions{
			LogicalPages:      footprint,
			PreconditionPages: footprint,
		})
		if err != nil {
			return GCCell{}, err
		}
		attr := tel.Attribution()
		phases, latSum := attr.Totals()
		blocked := phases[telemetry.PhaseGCBlocked]
		share := 0.0
		if latSum > 0 {
			share = float64(blocked) / float64(latSum)
		}
		reads := attr.E2E(telemetry.ReqRead)
		return GCCell{
			Arch:           c.arch,
			Policy:         c.arm.Name,
			ReadP99:        reads.P99(),
			ReadP999:       reads.Quantile(0.999),
			GCBlockedUS:    blocked,
			GCBlockedShare: share,
			Runs:           res.Metrics.GC.Runs,
			Relocated:      res.Metrics.GC.Relocated,
			PartialWindows: res.Metrics.GC.PartialWindows,
			PartialPages:   res.Metrics.GC.PartialPages,
			Suspensions:    res.Metrics.Suspensions,
		}, nil
	}

	runAntag := func(arm GCPolicyArm) (GCTenantCell, error) {
		traces, err := sim.GenerateTenants(antagonistSet(), small.Requests, small.Seed)
		if err != nil {
			return GCTenantCell{}, err
		}
		fp := sim.TotalFootprint(traces)
		cfg := configFor(sim.KindDVP, arm, fp)
		dev, err := sim.NewDevice(cfg)
		if err != nil {
			return GCTenantCell{}, err
		}
		mr, err := sim.RunTenants(dev, traces, sim.EngineOptions{
			Arbiter:           sim.ArbFIFO,
			QueueDepth:        DefaultTenantQueueDepth,
			DeviceSlots:       DefaultTenantQueueDepth,
			PreconditionPages: fp,
			LogicalPages:      fp,
		})
		if err != nil {
			return GCTenantCell{}, err
		}
		return GCTenantCell{Policy: arm.Name, Tenants: mr.Tenants}, nil
	}

	// One pool over both sweeps: the policy cells first, then the
	// antagonist arms.
	results := make([]GCCell, len(cells))
	antagResults := make([]GCTenantCell, len(antagArms))
	errs := parallelCells(len(cells)+len(antagArms), o.Jobs, func(i int) error {
		var err error
		if i < len(cells) {
			if results[i], err = runCell(cells[i]); err != nil {
				return fmt.Errorf("experiments: gcsweep %s/%s: %w", cells[i].arch, cells[i].arm.Name, err)
			}
			return nil
		}
		i -= len(cells)
		if antagResults[i], err = runAntag(antagArms[i]); err != nil {
			return fmt.Errorf("experiments: gcsweep antag/%s: %w", antagArms[i].Name, err)
		}
		return nil
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	out := &GCsweepResult{
		Workload: workloadName,
		Requests: small.Requests,
		Seed:     small.Seed,
		Cells:    results,
		Antag:    antagResults,
	}
	for _, arm := range arms {
		out.Policies = append(out.Policies, arm.Name)
	}
	return out, nil
}

// Table renders one row per (architecture, policy) cell followed by the
// antagonist-arm tenant rows.
func (r *GCsweepResult) Table() Table {
	t := Table{
		Title: fmt.Sprintf("GCsweep: read tail vs GC policy (%s, %d requests/cell, seed %d)",
			r.Workload, r.Requests, r.Seed),
		Header: []string{"arch", "policy", "read p99", "read p99.9",
			"gc-blocked", "gc-share", "gc runs", "reloc", "windows", "drained", "suspends"},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			c.Arch, c.Policy,
			fmt.Sprintf("%dµs", c.ReadP99),
			fmt.Sprintf("%dµs", c.ReadP999),
			fmt.Sprintf("%dµs", c.GCBlockedUS),
			pct(100 * c.GCBlockedShare),
			i64(c.Runs), i64(c.Relocated),
			i64(c.PartialWindows), i64(c.PartialPages), i64(c.Suspensions),
		})
	}
	for _, a := range r.Antag {
		for _, tr := range a.Tenants {
			t.Rows = append(t.Rows, []string{
				"antag:" + tr.Name, a.Policy,
				fmt.Sprintf("%dµs", tr.Reads.P99),
				fmt.Sprintf("%dµs", tr.P999),
				"-", "-", "-", "-", "-", "-", "-",
			})
		}
	}
	t.Notes = append(t.Notes,
		"policies: blocking = foreground-only GC; soft = idle-window background cycles;",
		"partial = resumable k-page drains per idle window; partial+susp = drains plus read-over-GC suspension.",
		"gc-blocked: host-request wait covered by GC ops (latency attribution phase, summed over all requests).",
		"dvp/antag rows: mail victim vs 4×-rate trans antagonist on the dvp architecture; the victim's",
		"tail should collapse under partial+susp while blocking leaves it inflated by the antagonist's GC.")
	return t
}
