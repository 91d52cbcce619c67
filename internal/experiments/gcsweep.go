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

	// DeviceMetrics is the replay's activity, preconditioning excluded:
	// GC counts victim cycles, relocations and partial drains;
	// Suspensions the host reads that preempted an in-flight GC op.
	sim.DeviceMetrics
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
	configFor := func(kind sim.Kind, p GCPolicyArm, fp int64) sim.Config {
		cfg := small.deviceConfig(kind, fp, sim.PoolMQ, 200_000)
		cfg.Geometry = gcSweepGeometry(fp)
		cfg.Store.SoftGCThreshold = p.Soft
		cfg.Store.Preempt = p.Preempt
		return cfg
	}

	type gcCell struct {
		arch   string
		kind   sim.Kind
		policy GCPolicyArm
	}
	var cells []gcCell
	for _, a := range tenantArchKinds {
		for _, p := range arms {
			cells = append(cells, gcCell{a.name, a.kind, p})
		}
	}
	out := &GCsweepResult{Workload: workloadName, Requests: small.Requests, Seed: small.Seed}
	out.Cells, err = runCells(cells, o.Jobs, func(c gcCell) (GCCell, error) {
		// Registry and attribution live, tracer off: the sweep only reads
		// histograms and phase sums, and cells are many.
		tel := telemetry.New(telemetry.Config{Enabled: true, TraceCap: -1})
		cfg := configFor(c.kind, c.policy, footprint)
		cfg.Telemetry = tel
		_, res, err := runDevice(cfg, recs, footprint)
		if err != nil {
			return GCCell{}, fmt.Errorf("experiments: gcsweep %s/%s: %w", c.arch, c.policy.Name, err)
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
			Policy:         c.policy.Name,
			ReadP99:        reads.P99(),
			ReadP999:       reads.Quantile(0.999),
			GCBlockedUS:    blocked,
			GCBlockedShare: share,
			DeviceMetrics:  res.Metrics,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// Antagonist arm: the bracketing policies only — the question is
	// whether preemption restores isolation, not the full policy ladder.
	antagArms := []GCPolicyArm{arms[0], arms[len(arms)-1]}
	out.Antag, err = runCells(antagArms, o.Jobs, func(p GCPolicyArm) (GCTenantCell, error) {
		tenants, err := runTenantCell(antagonistSet(), small.Requests, small.Seed,
			func(fp int64) sim.Config { return configFor(sim.KindDVP, p, fp) },
			sim.ArbFIFO, DefaultTenantQueueDepth)
		if err != nil {
			return GCTenantCell{}, fmt.Errorf("experiments: gcsweep antag/%s: %w", p.Name, err)
		}
		return GCTenantCell{Policy: p.Name, Tenants: tenants}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range arms {
		out.Policies = append(out.Policies, p.Name)
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
			i64(c.GC.Runs), i64(c.GC.Relocated),
			i64(c.GC.PartialWindows), i64(c.GC.PartialPages), i64(c.Suspensions),
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
