package experiments

import (
	"fmt"

	"zombiessd/internal/stats"
)

// StabilityRow is one workload's write-reduction spread across seeds.
type StabilityRow struct {
	Workload       string
	Mean, Min, Max float64
}

// StabilityResult reports how sensitive the headline figure (Fig 9's
// 200K-entry write reduction) is to the workload generator's seed — the
// reproduction's error bars.
type StabilityResult struct {
	Seeds int
	Rows  []StabilityRow
	// MeanOfMeans is the seed-averaged overall mean reduction.
	MeanOfMeans float64
}

// RunStability reruns the Fig 9 measurement over several seeds. Each seed
// regenerates every trace and resimulates baseline + DVP-200K, so this is
// one of the heavier experiments.
func RunStability(o Options) (*StabilityResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	const seeds = 3
	perWorkload := make(map[string][]float64)
	var order []string
	var overall []float64
	for s := int64(0); s < seeds; s++ {
		opts := o
		opts.Seed = o.Seed + s
		m, err := RunMatrix(opts, nil, []System{SysBaseline, SysDVP200K})
		if err != nil {
			return nil, err
		}
		if order == nil {
			order = m.Workloads
		}
		var reds []float64
		for _, w := range m.Workloads {
			base := float64(m.Results[w][SysBaseline].Metrics.HostPrograms())
			red := stats.ReductionPct(base, float64(m.Results[w][SysDVP200K].Metrics.HostPrograms()))
			perWorkload[w] = append(perWorkload[w], red)
			reds = append(reds, red)
		}
		overall = append(overall, stats.Mean(reds))
	}
	res := &StabilityResult{Seeds: seeds, MeanOfMeans: stats.Mean(overall)}
	for _, w := range order {
		xs := perWorkload[w]
		res.Rows = append(res.Rows, StabilityRow{
			Workload: w,
			Mean:     stats.Mean(xs),
			Min:      stats.MinOf(xs),
			Max:      stats.MaxOf(xs),
		})
	}
	return res, nil
}

// Table renders the stability study.
func (r *StabilityResult) Table() Table {
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Workload, pct(row.Mean), pct(row.Min), pct(row.Max)})
	}
	rows = append(rows, []string{"overall mean", pct(r.MeanOfMeans), "", ""})
	return Table{
		Title:  fmt.Sprintf("Stability: Fig 9 write reduction (200K pool) across %d seeds", r.Seeds),
		Header: []string{"workload", "mean", "min", "max"},
		Rows:   rows,
	}
}
