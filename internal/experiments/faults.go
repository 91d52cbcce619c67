package experiments

import (
	"fmt"

	"zombiessd/internal/fault"
	"zombiessd/internal/sim"
	"zombiessd/internal/stats"
)

// ------------------------------------------------------- fault tolerance --

// AblationFaultsRow is one fault-rate point: a baseline and a DVP-200K
// drive run under the same fault plan, so the write-reduction and tail
// numbers show how the zombie-revival benefit holds up as flash degrades.
type AblationFaultsRow struct {
	ProgramFailProb float64
	WriteRedPct     float64 // DVP vs the same-rate baseline
	P99             int64   // DVP p99 latency
	ReadRetries     int64   // DVP: extra ECC retry reads
	RetiredBlocks   int64   // DVP: blocks retired as bad
	Relocations     int64   // DVP: programs re-landed after a failure
}

// AblationFaultsResult sweeps the fault rate on the web workload.
type AblationFaultsResult struct{ Rows []AblationFaultsRow }

// RunAblationFaults measures how write reduction and p99 hold up as the
// fault rate rises. Each point injects program-status failures at the given
// probability, erase failures at half of it and ECC read retries at four
// times it (reads fail far more often than erases on real flash), with mild
// wear scaling so cycled blocks fail more. The rate-0 point is the perfect
// drive every paper figure uses.
func RunAblationFaults(o Options) (*AblationFaultsResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	recs, footprint, err := o.traceFor("web")
	if err != nil {
		return nil, err
	}
	rates := []float64{0, 1e-4, 5e-4, 2e-3}
	var res AblationFaultsResult
	for _, rate := range rates {
		plan := fault.Config{
			Seed:            o.Seed,
			ProgramFailProb: rate,
			EraseFailProb:   rate / 2,
			ReadFailProb:    rate * 4,
			WearFactor:      0.02,
		}
		run := func(kind sim.Kind) (sim.Result, error) {
			cfg := o.deviceConfig(kind, footprint, sim.PoolMQ, 200_000)
			cfg.Faults = plan
			_, res, err := runDevice(cfg, recs, footprint)
			return res, err
		}
		base, err := run(sim.KindBaseline)
		if err != nil {
			return nil, fmt.Errorf("experiments: faults rate %g baseline: %w", rate, err)
		}
		dvp, err := run(sim.KindDVP)
		if err != nil {
			return nil, fmt.Errorf("experiments: faults rate %g dvp: %w", rate, err)
		}
		f := dvp.Metrics.Faults
		res.Rows = append(res.Rows, AblationFaultsRow{
			ProgramFailProb: rate,
			WriteRedPct: stats.ReductionPct(
				float64(base.Metrics.HostPrograms()), float64(dvp.Metrics.HostPrograms())),
			P99:           dvp.All.P99,
			ReadRetries:   f.ReadRetries,
			RetiredBlocks: f.RetiredBlocks,
			Relocations:   f.Relocations,
		})
	}
	return &res, nil
}

// Table renders the fault-tolerance ablation.
func (r *AblationFaultsResult) Table() Table {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%g", row.ProgramFailProb), pct(row.WriteRedPct),
			usec(float64(row.P99)), i64(row.ReadRetries),
			i64(row.RetiredBlocks), i64(row.Relocations),
		})
	}
	return Table{
		Title:  "Ablation: fault injection (web; DVP-200K vs same-rate baseline)",
		Header: []string{"program-fail prob", "write red.", "DVP p99", "read retries", "retired blocks", "relocations"},
		Rows:   rows,
	}
}
