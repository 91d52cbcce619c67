package experiments

import (
	"fmt"

	"zombiessd/internal/lifetime"
)

// ----------------------------------------------------- wear-out lifetime --

// LifetimeResult wraps one drive-to-death run for rendering: the
// capacity / write-reduction / p99 vs cumulative-erases series ROADMAP
// asks for, for every device architecture plus the fault-weight ablation
// arm.
type LifetimeResult struct {
	R *lifetime.Result
}

// RunLifetime replays the web workload in repeated epochs under a
// wear-scaled fault plan until each architecture falls below the usable-
// capacity floor (or hits the erase budget or epoch cap). Epochs are a
// quarter of the experiment's request budget, and the dead-value pool is
// scaled to the per-epoch trace like every matrix experiment, so revival
// rates match the paper's regime. Options.Faults overrides the default
// wear plan; Options.GCFaultWeight overrides the fault-aware victim
// weight (0 keeps the lifetime default, and a dvp-w0 ablation arm always
// reports the unweighted policy alongside).
func RunLifetime(o Options) (*LifetimeResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	cfg := lifetime.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.Utilization = o.Utilization
	cfg.RequestsPerEpoch = o.Requests / 4
	if cfg.RequestsPerEpoch < 1000 {
		cfg.RequestsPerEpoch = 1000
	}
	epochScale := o
	epochScale.Requests = cfg.RequestsPerEpoch
	cfg.PoolEntries = epochScale.ScaleEntries(200_000)
	cfg.GCFaultWeight = o.GCFaultWeight
	if o.Faults.Enabled() {
		cfg.Faults = o.Faults
	}
	if o.Scrub.Enabled() {
		// The patrol needs the integrity model, so the caller's full fault
		// config (already validated as a pair) replaces the wear plan.
		cfg.Faults = o.Faults
		cfg.Scrub = o.Scrub
	}
	res, err := lifetime.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &LifetimeResult{R: res}, nil
}

// Table renders every epoch of every series — the plottable lifetime
// curves — plus per-architecture end-of-life notes.
func (r *LifetimeResult) Table() Table {
	res := r.R
	rows := make([][]string, 0, 64)
	notes := []string{
		fmt.Sprintf("floor %d of %d usable pages (%.0f%%), erase budget %d, %d requests/epoch (workload %s)",
			res.CapacityFloor, res.InitialUsable, 100*res.Config.CapacityFloorFrac,
			res.EraseBudget, res.Config.RequestsPerEpoch, res.Config.Workload),
		fmt.Sprintf("fault plan: program=%g erase=%g read=%g wear=%g suspect=%d; gc fault weight %g",
			res.Config.Faults.ProgramFailProb, res.Config.Faults.EraseFailProb,
			res.Config.Faults.ReadFailProb, res.Config.Faults.WearFactor,
			res.Config.Faults.SuspectThreshold, res.Config.GCFaultWeight),
	}
	for _, ser := range res.Series {
		for _, s := range ser.Samples {
			rows = append(rows, []string{
				string(ser.Kind), fmt.Sprintf("%d", s.Epoch), i64(s.CumErases),
				i64(s.RetiredBlocks), i64(s.UsablePages), pct(s.CapacityPct),
				pct(s.WriteRedPct), fmt.Sprintf("%.2f", s.WA), usec(float64(s.P99)),
			})
		}
		verdict := "stopped"
		if ser.Cause.Dead() {
			verdict = "died"
		}
		notes = append(notes, fmt.Sprintf("%s: %s (%s) after %d epochs — %d host writes served, %d erases paid",
			ser.Kind, verdict, ser.Cause, len(ser.Samples), ser.CumHostWrites, ser.CumErases))
	}
	return Table{
		Title:  "Lifetime: drive-to-death under a wear-scaled fault plan",
		Header: []string{"system", "epoch", "cum erases", "retired", "usable", "capacity", "write red.", "WA", "p99"},
		Rows:   rows,
		Notes:  notes,
	}
}
