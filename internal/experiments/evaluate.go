package experiments

import (
	"zombiessd/internal/stats"
)

// ensureMatrix returns m, or builds the needed slice of the evaluation
// matrix when m is nil.
func ensureMatrix(o Options, m *Matrix, systems []System) (*Matrix, error) {
	if m != nil {
		return m, nil
	}
	return RunMatrix(o, nil, systems)
}

// ---------------------------------------------------------------- Fig 9 --

// Fig9Row is one workload of Fig 9: reduction in host writes vs baseline
// for the three pool sizes and the ideal pool.
type Fig9Row struct {
	Workload                   string
	Red100K, Red200K, Red300K  float64
	RedIdeal                   float64
	BaselineWrites, Writes200K int64
}

// Fig9Result is Fig 9 plus its mean row.
type Fig9Result struct {
	Rows             []Fig9Row
	Mean200K, Max200 float64
}

// RunFig9 computes the write-reduction figure. Pass a prebuilt matrix to
// reuse simulations; nil runs the needed systems.
func RunFig9(o Options, m *Matrix) (*Fig9Result, error) {
	m, err := ensureMatrix(o, m, []System{SysBaseline, SysDVP100K, SysDVP200K, SysDVP300K, SysIdeal})
	if err != nil {
		return nil, err
	}
	var res Fig9Result
	var reds []float64
	for _, w := range m.Workloads {
		base := float64(m.Results[w][SysBaseline].Metrics.HostPrograms())
		red := func(sys System) float64 {
			return stats.ReductionPct(base, float64(m.Results[w][sys].Metrics.HostPrograms()))
		}
		row := Fig9Row{
			Workload:       w,
			Red100K:        red(SysDVP100K),
			Red200K:        red(SysDVP200K),
			Red300K:        red(SysDVP300K),
			RedIdeal:       red(SysIdeal),
			BaselineWrites: m.Results[w][SysBaseline].Metrics.HostPrograms(),
			Writes200K:     m.Results[w][SysDVP200K].Metrics.HostPrograms(),
		}
		res.Rows = append(res.Rows, row)
		reds = append(reds, row.Red200K)
	}
	res.Mean200K = stats.Mean(reds)
	res.Max200 = stats.MaxOf(reds)
	return &res, nil
}

// Table renders the structured Fig 9 table.
func (r *Fig9Result) Table() Table {
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload, pct(row.Red100K), pct(row.Red200K), pct(row.Red300K), pct(row.RedIdeal),
		})
	}
	rows = append(rows, []string{"mean", "", pct(r.Mean200K), "", ""})
	return Table{
		Title:  "Fig 9: reduction in the number of writes vs baseline",
		Header: []string{"workload", "100K", "200K", "300K", "ideal"},
		Rows:   rows,
	}
}

// --------------------------------------------------------------- Fig 10 --

// Fig10Row is one workload of Fig 10: erase-count reduction.
type Fig10Row struct {
	Workload          string
	Red200K, RedIdeal float64
	BaselineErases    int64
}

// Fig10Result is Fig 10 plus its mean.
type Fig10Result struct {
	Rows []Fig10Row
	Mean float64
}

// RunFig10 computes the erase-reduction figure.
func RunFig10(o Options, m *Matrix) (*Fig10Result, error) {
	m, err := ensureMatrix(o, m, []System{SysBaseline, SysDVP200K, SysIdeal})
	if err != nil {
		return nil, err
	}
	var res Fig10Result
	var reds []float64
	for _, w := range m.Workloads {
		base := float64(m.Results[w][SysBaseline].Metrics.FlashErases)
		row := Fig10Row{
			Workload:       w,
			Red200K:        stats.ReductionPct(base, float64(m.Results[w][SysDVP200K].Metrics.FlashErases)),
			RedIdeal:       stats.ReductionPct(base, float64(m.Results[w][SysIdeal].Metrics.FlashErases)),
			BaselineErases: m.Results[w][SysBaseline].Metrics.FlashErases,
		}
		res.Rows = append(res.Rows, row)
		reds = append(reds, row.Red200K)
	}
	res.Mean = stats.Mean(reds)
	return &res, nil
}

// Table renders the structured Fig 10 table.
func (r *Fig10Result) Table() Table {
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Workload, pct(row.Red200K), pct(row.RedIdeal), i64(row.BaselineErases)})
	}
	rows = append(rows, []string{"mean", pct(r.Mean), "", ""})
	return Table{
		Title:  "Fig 10: reduction in erase counts vs baseline (200K-entry pool)",
		Header: []string{"workload", "DVP", "ideal", "baseline erases"},
		Rows:   rows,
	}
}

// --------------------------------------------------------------- Fig 11 --

// Fig11Row is one workload of Fig 11: mean-latency improvement of DVP and
// of the LX-SSD prior work.
type Fig11Row struct {
	Workload              string
	DVPImprove, LXImprove float64
	BaselineMean          float64
}

// Fig11Result is Fig 11 plus means.
type Fig11Result struct {
	Rows            []Fig11Row
	DVPMean, LXMean float64
}

// RunFig11 computes the mean-latency figure including the LX-SSD bar.
func RunFig11(o Options, m *Matrix) (*Fig11Result, error) {
	m, err := ensureMatrix(o, m, []System{SysBaseline, SysDVP200K, SysLX})
	if err != nil {
		return nil, err
	}
	var res Fig11Result
	var dvps, lxs []float64
	for _, w := range m.Workloads {
		base := m.Results[w][SysBaseline].All.Mean
		row := Fig11Row{
			Workload:     w,
			DVPImprove:   stats.ReductionPct(base, m.Results[w][SysDVP200K].All.Mean),
			LXImprove:    stats.ReductionPct(base, m.Results[w][SysLX].All.Mean),
			BaselineMean: base,
		}
		res.Rows = append(res.Rows, row)
		dvps = append(dvps, row.DVPImprove)
		lxs = append(lxs, row.LXImprove)
	}
	res.DVPMean = stats.Mean(dvps)
	res.LXMean = stats.Mean(lxs)
	return &res, nil
}

// Table renders the structured Fig 11 table.
func (r *Fig11Result) Table() Table {
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Workload, pct(row.DVPImprove), pct(row.LXImprove), usec(row.BaselineMean)})
	}
	rows = append(rows, []string{"mean", pct(r.DVPMean), pct(r.LXMean), ""})
	return Table{
		Title:  "Fig 11: mean latency improvement vs baseline",
		Header: []string{"workload", "DVP", "LX-SSD", "baseline mean"},
		Rows:   rows,
	}
}

// --------------------------------------------------------------- Fig 12 --

// Fig12Row is one workload of Fig 12: tail (p99) latency improvement.
type Fig12Row struct {
	Workload    string
	Improvement float64
	BaselineP99 int64
	DVPP99      int64
}

// Fig12Result is Fig 12 plus its mean.
type Fig12Result struct {
	Rows []Fig12Row
	Mean float64
}

// RunFig12 computes the tail-latency figure.
func RunFig12(o Options, m *Matrix) (*Fig12Result, error) {
	m, err := ensureMatrix(o, m, []System{SysBaseline, SysDVP200K})
	if err != nil {
		return nil, err
	}
	var res Fig12Result
	var imps []float64
	for _, w := range m.Workloads {
		base := m.Results[w][SysBaseline].All.P99
		dvp := m.Results[w][SysDVP200K].All.P99
		row := Fig12Row{
			Workload:    w,
			Improvement: stats.ReductionPct(float64(base), float64(dvp)),
			BaselineP99: base,
			DVPP99:      dvp,
		}
		res.Rows = append(res.Rows, row)
		imps = append(imps, row.Improvement)
	}
	res.Mean = stats.Mean(imps)
	return &res, nil
}

// Table renders the structured Fig 12 table.
func (r *Fig12Result) Table() Table {
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload, pct(row.Improvement),
			usec(float64(row.BaselineP99)), usec(float64(row.DVPP99)),
		})
	}
	rows = append(rows, []string{"mean", pct(r.Mean), "", ""})
	return Table{
		Title:  "Fig 12: tail (p99) latency improvement vs baseline (200K-entry pool)",
		Header: []string{"workload", "improvement", "baseline p99", "DVP p99"},
		Rows:   rows,
	}
}

// --------------------------------------------------------------- Fig 14 --

// Fig14Row is one workload of Fig 14: host writes normalized to baseline
// for Dedup, DVP and DVP+Dedup.
type Fig14Row struct {
	Workload             string
	Dedup, DVP, DVPDedup float64 // % of baseline writes
}

// Fig14Result is Fig 14 plus means.
type Fig14Result struct {
	Rows                             []Fig14Row
	DedupMean, DVPMean, CombinedMean float64
	// ExtraOverDedup is the additional write reduction DVP+Dedup achieves
	// relative to dedup alone (the paper's "another 11%").
	ExtraOverDedup float64
}

// RunFig14 computes the normalized-writes comparison of Section VII.
func RunFig14(o Options, m *Matrix) (*Fig14Result, error) {
	m, err := ensureMatrix(o, m, []System{SysBaseline, SysDedup, SysDVP200K, SysDVPDedup})
	if err != nil {
		return nil, err
	}
	var res Fig14Result
	var ded, dvp, comb, extra []float64
	for _, w := range m.Workloads {
		base := float64(m.Results[w][SysBaseline].Metrics.HostPrograms())
		norm := func(sys System) float64 {
			return stats.NormalizedPct(base, float64(m.Results[w][sys].Metrics.HostPrograms()))
		}
		row := Fig14Row{
			Workload: w,
			Dedup:    norm(SysDedup),
			DVP:      norm(SysDVP200K),
			DVPDedup: norm(SysDVPDedup),
		}
		res.Rows = append(res.Rows, row)
		ded = append(ded, row.Dedup)
		dvp = append(dvp, row.DVP)
		comb = append(comb, row.DVPDedup)
		extra = append(extra, stats.ReductionPct(
			float64(m.Results[w][SysDedup].Metrics.HostPrograms()),
			float64(m.Results[w][SysDVPDedup].Metrics.HostPrograms())))
	}
	res.DedupMean = stats.Mean(ded)
	res.DVPMean = stats.Mean(dvp)
	res.CombinedMean = stats.Mean(comb)
	res.ExtraOverDedup = stats.Mean(extra)
	return &res, nil
}

// Table renders the structured Fig 14 table.
func (r *Fig14Result) Table() Table {
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Workload, pct(row.Dedup), pct(row.DVP), pct(row.DVPDedup)})
	}
	rows = append(rows, []string{"mean", pct(r.DedupMean), pct(r.DVPMean), pct(r.CombinedMean)})
	return Table{
		Title:  "Fig 14: number of writes normalized to baseline",
		Header: []string{"workload", "dedup", "DVP", "DVP+dedup"},
		Rows:   rows,
		Notes:  []string{"extra write reduction of DVP+dedup over dedup alone: " + pct(r.ExtraOverDedup)},
	}
}

// --------------------------------------------------------------- Fig 15 --

// Fig15Row is one workload of Fig 15: mean-latency improvement of DVP,
// Dedup and DVP+Dedup over baseline.
type Fig15Row struct {
	Workload             string
	DVP, Dedup, DVPDedup float64
}

// Fig15Result is Fig 15 plus means.
type Fig15Result struct {
	Rows                             []Fig15Row
	DVPMean, DedupMean, CombinedMean float64
	// ExtraOverDedup is the additional latency improvement of the combined
	// system relative to dedup alone (the paper's 9.8% mean).
	ExtraOverDedup float64
}

// RunFig15 computes the latency comparison of Section VII.
func RunFig15(o Options, m *Matrix) (*Fig15Result, error) {
	m, err := ensureMatrix(o, m, []System{SysBaseline, SysDedup, SysDVP200K, SysDVPDedup})
	if err != nil {
		return nil, err
	}
	var res Fig15Result
	var dvp, ded, comb, extra []float64
	for _, w := range m.Workloads {
		base := m.Results[w][SysBaseline].All.Mean
		imp := func(sys System) float64 {
			return stats.ReductionPct(base, m.Results[w][sys].All.Mean)
		}
		row := Fig15Row{
			Workload: w,
			DVP:      imp(SysDVP200K),
			Dedup:    imp(SysDedup),
			DVPDedup: imp(SysDVPDedup),
		}
		res.Rows = append(res.Rows, row)
		dvp = append(dvp, row.DVP)
		ded = append(ded, row.Dedup)
		comb = append(comb, row.DVPDedup)
		extra = append(extra, stats.ReductionPct(
			m.Results[w][SysDedup].All.Mean, m.Results[w][SysDVPDedup].All.Mean))
	}
	res.DVPMean = stats.Mean(dvp)
	res.DedupMean = stats.Mean(ded)
	res.CombinedMean = stats.Mean(comb)
	res.ExtraOverDedup = stats.Mean(extra)
	return &res, nil
}

// Table renders the structured Fig 15 table.
func (r *Fig15Result) Table() Table {
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Workload, pct(row.DVP), pct(row.Dedup), pct(row.DVPDedup)})
	}
	rows = append(rows, []string{"mean", pct(r.DVPMean), pct(r.DedupMean), pct(r.CombinedMean)})
	return Table{
		Title:  "Fig 15: mean latency improvement vs baseline",
		Header: []string{"workload", "DVP", "dedup", "DVP+dedup"},
		Rows:   rows,
		Notes:  []string{"extra latency improvement of DVP+dedup over dedup alone: " + pct(r.ExtraOverDedup)},
	}
}
