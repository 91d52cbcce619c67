package experiments

import (
	"fmt"

	"zombiessd/internal/analysis"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
	"zombiessd/internal/workload"
)

// ---------------------------------------------------------------- Fig 1 --

// Fig1Row is one bar group of Fig 1: the probability (with an infinite
// buffer) of servicing a write from a garbage page, raw and after dedup.
type Fig1Row struct {
	Day        string // "m2" = second day of mail
	RawProb    float64
	DedupProb  float64
	DayWrites  int64
	GarbageHit int64
}

// Fig1Result is the full Fig 1 series.
type Fig1Result struct{ Rows []Fig1Row }

// RunFig1 analyzes the per-day reuse opportunity of mail, home and web.
func RunFig1(o Options) (*Fig1Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	var res Fig1Result
	for _, name := range []string{"mail", "home", "web"} {
		p, _ := workload.ProfileByName(name)
		days, err := workload.GenerateDays(p, o.Days, o.Requests, o.Seed)
		if err != nil {
			return nil, err
		}
		for d, recs := range days {
			rep := analysis.ReuseOpportunity(recs)
			res.Rows = append(res.Rows, Fig1Row{
				Day:        workload.DayLabel(name, d+1),
				RawProb:    rep.RawReuseProb(),
				DedupProb:  rep.DedupReuseProb(),
				DayWrites:  rep.TotalWrites,
				GarbageHit: rep.RawGarbageHits,
			})
		}
	}
	return &res, nil
}

// Table renders the structured Fig 1 table.
func (r *Fig1Result) Table() Table {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Day, pct(row.RawProb * 100), pct(row.DedupProb * 100), i64(row.DayWrites),
		})
	}
	return Table{
		Title:  "Fig 1: probability of reusing garbage pages (infinite buffer)",
		Header: []string{"trace-day", "reuse", "reuse after dedup", "writes"},
		Rows:   rows,
	}
}

// ---------------------------------------------------------------- Fig 2 --

// Fig2Result is the CDF of per-value invalidation counts for mail.
type Fig2Result struct {
	LiveFraction float64 // values never invalidated (CDF at x = 0)
	Points       []analysis.CDFPoint
	UniqueValues int
}

// RunFig2 computes Fig 2 on one day of mail.
func RunFig2(o Options) (*Fig2Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p, _ := workload.ProfileByName("mail")
	recs, err := workload.Generate(p, o.Requests, o.Seed)
	if err != nil {
		return nil, err
	}
	l := analysis.AnalyzeLifecycle(recs)
	pts := l.InvalidationCDF()
	res := &Fig2Result{Points: pts, UniqueValues: l.UniqueValues()}
	if len(pts) > 0 && pts[0].X == 0 {
		res.LiveFraction = pts[0].Fraction
	}
	return res, nil
}

// Table renders the structured Fig 2 table.
func (r *Fig2Result) Table() Table {
	rows := make([][]string, 0, len(r.Points))
	for _, pt := range samplePoints(r.Points, 12) {
		rows = append(rows, []string{i64(pt.X), pct(pt.Fraction * 100)})
	}
	return Table{
		Title:  "Fig 2: CDF of invalidation counts (mail)",
		Header: []string{"invalidations ≤", "fraction of values"},
		Rows:   rows,
		Notes: []string{fmt.Sprintf("values never invalidated (still live): %s of %d unique values",
			pct(r.LiveFraction*100), r.UniqueValues)},
	}
}

// samplePoints thins a CDF to at most n rows, keeping first and last.
func samplePoints(pts []analysis.CDFPoint, n int) []analysis.CDFPoint {
	if len(pts) <= n {
		return pts
	}
	out := make([]analysis.CDFPoint, 0, n)
	for i := 0; i < n-1; i++ {
		out = append(out, pts[i*len(pts)/(n-1)])
	}
	return append(out, pts[len(pts)-1])
}

// ---------------------------------------------------------------- Fig 3 --

// Fig3Result holds the three concentration curves of Fig 3 for mail:
// values sorted by write count, cumulative share of writes, invalidations
// and rebirths.
type Fig3Result struct {
	Writes        []analysis.LorenzPoint
	Invalidations []analysis.LorenzPoint
	Rebirths      []analysis.LorenzPoint
}

// RunFig3 computes Fig 3 on mail.
func RunFig3(o Options) (*Fig3Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p, _ := workload.ProfileByName("mail")
	recs, err := workload.Generate(p, o.Requests, o.Seed)
	if err != nil {
		return nil, err
	}
	l := analysis.AnalyzeLifecycle(recs)
	const points = 10
	return &Fig3Result{
		Writes:        l.Concentration(analysis.WritesMetric, points),
		Invalidations: l.Concentration(analysis.DeathsMetric, points),
		Rebirths:      l.Concentration(analysis.RebirthsMetric, points),
	}, nil
}

// Table renders the structured Fig 3 table.
func (r *Fig3Result) Table() Table {
	rows := make([][]string, 0, len(r.Writes))
	for i := range r.Writes {
		rows = append(rows, []string{
			pct(r.Writes[i].ValueFrac * 100),
			pct(r.Writes[i].MetricFrac * 100),
			pct(r.Invalidations[i].MetricFrac * 100),
			pct(r.Rebirths[i].MetricFrac * 100),
		})
	}
	return Table{
		Title:  "Fig 3: cumulative share per top fraction of values (mail, sorted by writes)",
		Header: []string{"top values", "(a) writes", "(b) invalidations", "(c) rebirths"},
		Rows:   rows,
	}
}

// ---------------------------------------------------------------- Fig 4 --

// Fig4Result is the popularity-binned timing study of Fig 4 on mail.
type Fig4Result struct{ Bins []analysis.PopularityBin }

// RunFig4 computes Fig 4 on mail, with popularity degrees clamped at 32.
func RunFig4(o Options) (*Fig4Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p, _ := workload.ProfileByName("mail")
	recs, err := workload.Generate(p, o.Requests, o.Seed)
	if err != nil {
		return nil, err
	}
	l := analysis.AnalyzeLifecycle(recs)
	return &Fig4Result{Bins: l.PopularityTiming(32)}, nil
}

// Table renders the structured Fig 4 table.
func (r *Fig4Result) Table() Table {
	rows := make([][]string, 0, len(r.Bins))
	for _, b := range r.Bins {
		rows = append(rows, []string{
			i64(b.Degree), i64(b.Values),
			f1(b.AvgCreateToDeath), f1(b.AvgDeathToRebirth), f1(b.AvgRebirths),
		})
	}
	return Table{
		Title:  "Fig 4: life-cycle timing vs popularity degree (mail; distances in writes)",
		Header: []string{"degree", "values", "(a) create→death", "(b) death→rebirth", "(c) rebirths"},
		Rows:   rows,
	}
}

// ---------------------------------------------------------------- Fig 5 --

// Fig5Row is one trace-day of Fig 5: performed writes under LRU dead-value
// buffers of increasing size, with the infinite buffer last.
type Fig5Row struct {
	Day    string
	Points []analysis.LRUSweepPoint
}

// Fig5Result is the whole Fig 5.
type Fig5Result struct {
	Capacities []int // scaled entries; 0 = infinite
	Rows       []Fig5Row
}

// RunFig5 sweeps LRU buffer sizes (the paper's 100K–1M entries, scaled)
// over the days of mail, home and web.
func RunFig5(o Options) (*Fig5Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	caps := []int{
		o.ScaleEntries(100_000), o.ScaleEntries(250_000),
		o.ScaleEntries(500_000), o.ScaleEntries(1_000_000), 0,
	}
	res := &Fig5Result{Capacities: caps}
	for _, name := range []string{"mail", "home", "web"} {
		p, _ := workload.ProfileByName(name)
		days, err := workload.GenerateDays(p, o.Days, o.Requests, o.Seed)
		if err != nil {
			return nil, err
		}
		for d, recs := range days {
			res.Rows = append(res.Rows, Fig5Row{
				Day:    workload.DayLabel(name, d+1),
				Points: analysis.LRUWriteSweep(recs, caps),
			})
		}
	}
	return res, nil
}

// Table renders the structured Fig 5 table.
func (r *Fig5Result) Table() Table {
	header := []string{"trace-day"}
	for _, c := range r.Capacities {
		if c == 0 {
			header = append(header, "infinite")
		} else {
			header = append(header, fmt.Sprintf("%dK", c/1000))
		}
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.Day}
		for _, pt := range row.Points {
			cells = append(cells, i64(pt.Writes))
		}
		rows = append(rows, cells)
	}
	return Table{
		Title:  "Fig 5: number of writes with LRU dead-value buffers (entries scaled)",
		Header: header,
		Rows:   rows,
	}
}

// ---------------------------------------------------------------- Fig 6 --

// Fig6Result is the avoidable-miss study of Fig 6 (mail day 2, small LRU).
type Fig6Result struct {
	Capacity int
	Bins     []analysis.DegreeMisses
}

// RunFig6 computes Fig 6: average avoidable LRU misses per popularity
// degree on the second day of mail with the scaled 100K-entry buffer.
func RunFig6(o Options) (*Fig6Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p, _ := workload.ProfileByName("mail")
	daysNeeded := o.Days
	if daysNeeded < 2 {
		daysNeeded = 2
	}
	days, err := workload.GenerateDays(p, daysNeeded, o.Requests, o.Seed)
	if err != nil {
		return nil, err
	}
	capacity := o.ScaleEntries(100_000)
	return &Fig6Result{
		Capacity: capacity,
		Bins:     analysis.LRUMissByPopularity(days[1], capacity, 32),
	}, nil
}

// Table renders the structured Fig 6 table.
func (r *Fig6Result) Table() Table {
	rows := make([][]string, 0, len(r.Bins))
	for _, b := range r.Bins {
		rows = append(rows, []string{i64(b.Degree), i64(b.Values), f1(b.AvgMisses)})
	}
	return Table{
		Title:  fmt.Sprintf("Fig 6: avg avoidable LRU misses per popularity degree (m2, %d entries)", r.Capacity),
		Header: []string{"degree", "values", "avg misses"},
		Rows:   rows,
	}
}

// -------------------------------------------------------------- Table I --

// Table1Result is the modeled SSD configuration.
type Table1Result struct {
	Geometry ssd.Geometry
	Latency  ssd.Latency
}

// RunTable1 returns the paper's Table I configuration.
func RunTable1(Options) (*Table1Result, error) {
	return &Table1Result{Geometry: ssd.PaperGeometry(), Latency: ssd.PaperLatency()}, nil
}

// Table renders the structured Table I.
func (r *Table1Result) Table() Table {
	g, l := r.Geometry, r.Latency
	rows := [][]string{
		{"Dimension", fmt.Sprintf("%d channels × %d chips", g.Channels, g.ChipsPerChannel)},
		{"Dies per chip", i64(int64(g.DiesPerChip))},
		{"Planes per die", i64(int64(g.PlanesPerDie))},
		{"Block size", fmt.Sprintf("%d pages", g.PagesPerBlock)},
		{"Page size", fmt.Sprintf("%d B", g.PageSize)},
		{"Capacity", fmt.Sprintf("%.0f GiB", float64(g.RawBytes())/(1<<30))},
		{"Over-provisioning", pct(g.OverProvision * 100)},
		{"Read latency", fmt.Sprintf("%d µs", l.Read)},
		{"Program latency", fmt.Sprintf("%d µs", l.Program)},
		{"Erase latency", fmt.Sprintf("%.1f ms", float64(l.Erase)/1000)},
		{"Hashing latency", fmt.Sprintf("%d µs", l.Hash)},
	}
	return Table{
		Title:  "Table I: main characteristics of the modeled SSD",
		Header: []string{"parameter", "value"},
		Rows:   rows,
	}
}

// ------------------------------------------------------------- Table II --

// Table2Row is one workload's characteristics.
type Table2Row struct {
	Name           string
	WriteRatio     float64
	UniqueWriteVal float64
	UniqueReadVal  float64
	Footprint      int64
}

// Table2Result reproduces Table II from the generated traces.
type Table2Result struct{ Rows []Table2Row }

// RunTable2 generates each workload and measures its Table II columns.
func RunTable2(o Options) (*Table2Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	var res Table2Result
	for _, name := range workload.Names() {
		p, _ := workload.ProfileByName(name)
		recs, err := workload.Generate(p, o.Requests, o.Seed)
		if err != nil {
			return nil, err
		}
		s := trace.Collect(recs)
		res.Rows = append(res.Rows, Table2Row{
			Name:           name,
			WriteRatio:     s.WriteRatio(),
			UniqueWriteVal: s.UniqueWriteValueRatio(),
			UniqueReadVal:  s.UniqueReadValueRatio(),
			Footprint:      s.UniqueLBAs,
		})
	}
	return &res, nil
}

// Table renders the structured Table II.
func (r *Table2Result) Table() Table {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name, pct(row.WriteRatio * 100),
			pct(row.UniqueWriteVal * 100), pct(row.UniqueReadVal * 100),
			i64(row.Footprint),
		})
	}
	return Table{
		Title:  "Table II: workload characteristics (measured on generated traces)",
		Header: []string{"trace", "WR", "unique value WR", "unique value RD", "footprint (pages)"},
		Rows:   rows,
	}
}
