package experiments

import "sort"

// Experiment is one registered paper artifact.
type Experiment struct {
	ID    string // the paper's artifact id ("fig9", "table2", …)
	Title string
	// NeedsMatrix marks full-simulation experiments that can share a
	// prebuilt evaluation matrix.
	NeedsMatrix bool
	// Run executes the experiment; m may be nil (each experiment builds
	// what it needs) and is ignored by trace-only experiments.
	Run func(o Options, m *Matrix) (Tabler, error)
}

// registry lists every experiment in the paper's order.
var registry = []Experiment{
	{ID: "table1", Title: "Table I: modeled SSD characteristics",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunTable1(o) }},
	{ID: "table2", Title: "Table II: workload characteristics",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunTable2(o) }},
	{ID: "fig1", Title: "Fig 1: garbage-page reuse probability (infinite buffer)",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunFig1(o) }},
	{ID: "fig2", Title: "Fig 2: CDF of invalidation counts",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunFig2(o) }},
	{ID: "fig3", Title: "Fig 3: write/invalidation/rebirth concentration",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunFig3(o) }},
	{ID: "fig4", Title: "Fig 4: life-cycle timing vs popularity",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunFig4(o) }},
	{ID: "fig5", Title: "Fig 5: writes under LRU buffer sweep",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunFig5(o) }},
	{ID: "fig6", Title: "Fig 6: LRU misses by popularity degree",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunFig6(o) }},
	{ID: "fig9", Title: "Fig 9: write reduction", NeedsMatrix: true,
		Run: func(o Options, m *Matrix) (Tabler, error) { return RunFig9(o, m) }},
	{ID: "fig10", Title: "Fig 10: erase-count reduction", NeedsMatrix: true,
		Run: func(o Options, m *Matrix) (Tabler, error) { return RunFig10(o, m) }},
	{ID: "fig11", Title: "Fig 11: mean latency improvement (incl. LX-SSD)", NeedsMatrix: true,
		Run: func(o Options, m *Matrix) (Tabler, error) { return RunFig11(o, m) }},
	{ID: "fig12", Title: "Fig 12: tail latency improvement", NeedsMatrix: true,
		Run: func(o Options, m *Matrix) (Tabler, error) { return RunFig12(o, m) }},
	{ID: "fig14", Title: "Fig 14: writes normalized (dedup interplay)", NeedsMatrix: true,
		Run: func(o Options, m *Matrix) (Tabler, error) { return RunFig14(o, m) }},
	{ID: "fig15", Title: "Fig 15: latency improvement (dedup interplay)", NeedsMatrix: true,
		Run: func(o Options, m *Matrix) (Tabler, error) { return RunFig15(o, m) }},
	{ID: "ablation-policy", Title: "Ablation: pool replacement policy (LRU vs MQ vs infinite)",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunAblationPolicy(o) }},
	{ID: "ablation-gc", Title: "Ablation: popularity-aware GC weight sweep",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunAblationGC(o) }},
	{ID: "ablation-adaptive", Title: "Ablation: adaptive pool capacity (future work)",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunAblationAdaptive(o) }},
	{ID: "ablation-bgc", Title: "Ablation: background GC (idle-time dead-block erasure)",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunAblationBGC(o) }},
	{ID: "ablation-faults", Title: "Ablation: fault injection (write reduction and p99 vs fault rate)",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunAblationFaults(o) }},
	{ID: "lifetime", Title: "Lifetime: wear-out drive-to-death (capacity/write-reduction/p99 vs cumulative erases)",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunLifetime(o) }},
	{ID: "stability", Title: "Stability: Fig 9 headline across seeds",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunStability(o) }},
	{ID: "crashsweep", Title: "Crashsweep: sudden-power-loss recovery (OOB scan, DVP re-seed, integrity oracle)",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunCrashsweep(o) }},
	{ID: "scrubsweep", Title: "Scrubsweep: RBER decay, background scrubbing and revival gating across architectures",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunScrubsweep(o) }},
	{ID: "tenantsweep", Title: "Tenantsweep: multi-tenant QoS isolation and cross-tenant DVP subsidy",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunTenantsweep(o) }},
	{ID: "gcsweep", Title: "GCsweep: read tail latency and gc-blocked attribution vs preemptible-GC policy",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunGCsweep(o) }},
	{ID: "chaossweep", Title: "Chaossweep: crash/fault/decay soak under the device health governor",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunChaossweep(o) }},
	{ID: "rainsweep", Title: "Rainsweep: whole-die failure and RAIN parity reconstruction across architectures",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunRainsweep(o) }},
	{ID: "dftlsweep", Title: "Dftlsweep: flash-resident mapping (DFTL CMT + translation-page GC) across architectures",
		Run: func(o Options, _ *Matrix) (Tabler, error) { return RunDftlsweep(o) }},
}

// All returns every experiment in the paper's order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the registered ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
