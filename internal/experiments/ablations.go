package experiments

import (
	"fmt"

	"zombiessd/internal/analysis"
	"zombiessd/internal/core"
	"zombiessd/internal/ftl"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/stats"
	"zombiessd/internal/trace"
	"zombiessd/internal/workload"
)

// The ablation experiments quantify the design choices DESIGN.md §6 calls
// out. They are not paper artifacts; they are registered alongside the
// figures ("ablation-*" ids) so `zombiectl run` can regenerate them too.

// ---------------------------------------------------- replacement policy --

// AblationPolicyResult compares pool replacement policies at equal capacity
// on the offline replay of every workload.
type AblationPolicyResult struct {
	Capacity int
	Rows     []AblationPolicyRow
}

// AblationPolicyRow is one workload's hit counts per policy.
type AblationPolicyRow struct {
	Workload                 string
	LRUHits, MQHits, InfHits int64
	Writes                   int64
}

// RunAblationPolicy sweeps LRU vs MQ vs infinite on all six workloads.
func RunAblationPolicy(o Options) (*AblationPolicyResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	capacity := o.ScaleEntries(200_000)
	res := &AblationPolicyResult{Capacity: capacity}
	for _, name := range workload.Names() {
		p, _ := workload.ProfileByName(name)
		recs, err := workload.Generate(p, o.Requests, o.Seed)
		if err != nil {
			return nil, err
		}
		lru := analysis.LRUWriteSweep(recs, []int{capacity})
		mq := analysis.MQWriteSweep(recs, []int{capacity}, 8)
		inf := analysis.LRUWriteSweep(recs, []int{0})
		res.Rows = append(res.Rows, AblationPolicyRow{
			Workload: name,
			LRUHits:  lru[0].Hits,
			MQHits:   mq[0].Hits,
			InfHits:  inf[0].Hits,
			Writes:   lru[0].Writes + lru[0].Hits,
		})
	}
	return res, nil
}

// Table renders the policy ablation.
func (r *AblationPolicyResult) Table() Table {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload, i64(row.LRUHits), i64(row.MQHits), i64(row.InfHits), i64(row.Writes),
		})
	}
	return Table{
		Title:  fmt.Sprintf("Ablation: pool replacement policy (offline replay, %d entries)", r.Capacity),
		Header: []string{"workload", "LRU hits", "MQ hits", "infinite hits", "writes"},
		Rows:   rows,
	}
}

// -------------------------------------------------- popularity-aware GC --

// AblationGCRow is one GC-weight point.
type AblationGCRow struct {
	Weight     float64
	Revived    int64
	Relocated  int64
	Erases     int64
	MeanLatImp float64 // vs the weight-0 run
}

// AblationGCResult sweeps the popularity-aware GC weight on web.
type AblationGCResult struct{ Rows []AblationGCRow }

// RunAblationGC measures the GC victim-score weight trade-off
// (DESIGN.md §7): revivals rise with protection, but so does relocation.
func RunAblationGC(o Options) (*AblationGCResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	recs, footprint, err := o.traceFor("web")
	if err != nil {
		return nil, err
	}
	weights := []float64{0, 1.0 / 255, 4.0 / 255, 16.0 / 255, 64.0 / 255}
	var res AblationGCResult
	var baseMean float64
	for i, w := range weights {
		cfg := o.deviceConfig(sim.KindDVP, footprint, sim.PoolMQ, 200_000)
		cfg.Store.PopularityWeight = w
		_, run, err := runDevice(cfg, recs, footprint)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			baseMean = run.All.Mean
		}
		res.Rows = append(res.Rows, AblationGCRow{
			Weight:     w,
			Revived:    run.Metrics.Revived,
			Relocated:  run.Metrics.GC.Relocated,
			Erases:     run.Metrics.FlashErases,
			MeanLatImp: stats.ReductionPct(baseMean, run.All.Mean),
		})
	}
	return &res, nil
}

// Table renders the GC-weight ablation.
func (r *AblationGCResult) Table() Table {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.4f", row.Weight), i64(row.Revived), i64(row.Relocated),
			i64(row.Erases), pct(row.MeanLatImp),
		})
	}
	return Table{
		Title:  "Ablation: popularity-aware GC weight (web; latency vs the greedy run)",
		Header: []string{"weight", "revivals", "GC relocations", "erases", "mean lat vs greedy"},
		Rows:   rows,
	}
}

// -------------------------------------------------------- adaptive pool --

// AblationAdaptiveRow is one configuration of the capacity ablation.
type AblationAdaptiveRow struct {
	Config        string
	Hits          int64
	FinalCapacity int
}

// AblationAdaptiveResult compares fixed pools with the self-tuning pool.
type AblationAdaptiveResult struct{ Rows []AblationAdaptiveRow }

// RunAblationAdaptive replays mail offline against a small fixed pool, the
// adaptive pool starting at the same size, and a large fixed pool.
func RunAblationAdaptive(o Options) (*AblationAdaptiveResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p, _ := workload.ProfileByName("mail")
	recs, err := workload.Generate(p, o.Requests, o.Seed)
	if err != nil {
		return nil, err
	}
	small := o.ScaleEntries(50_000)
	large := o.ScaleEntries(1_000_000)

	replay := func(pool core.Pool, ledger *core.Ledger) int64 {
		_, hits := analysis.ReplayPool(recs, pool, ledger)
		return hits
	}

	var res AblationAdaptiveResult
	{
		l := core.NewLedger()
		pool := core.NewMQPool(core.MQConfig{Queues: 8, Capacity: small, DefaultLifetime: 8192}, l)
		res.Rows = append(res.Rows, AblationAdaptiveRow{
			Config: fmt.Sprintf("fixed %d", small), Hits: replay(pool, l), FinalCapacity: small,
		})
	}
	{
		l := core.NewLedger()
		pool := core.NewAdaptivePool(core.AdaptiveConfig{
			MQ:          core.MQConfig{Queues: 8, Capacity: small, DefaultLifetime: 8192},
			MinCapacity: small / 4, MaxCapacity: large, Window: 8192, Step: 0.25,
		}, l)
		res.Rows = append(res.Rows, AblationAdaptiveRow{
			Config: fmt.Sprintf("adaptive (start %d)", small), Hits: replay(pool, l),
			FinalCapacity: pool.Capacity(),
		})
	}
	{
		l := core.NewLedger()
		pool := core.NewMQPool(core.MQConfig{Queues: 8, Capacity: large, DefaultLifetime: 8192}, l)
		res.Rows = append(res.Rows, AblationAdaptiveRow{
			Config: fmt.Sprintf("fixed %d", large), Hits: replay(pool, l), FinalCapacity: large,
		})
	}
	return &res, nil
}

// Table renders the adaptive-capacity ablation.
func (r *AblationAdaptiveResult) Table() Table {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Config, i64(row.Hits), i64(int64(row.FinalCapacity))})
	}
	return Table{
		Title:  "Ablation: adaptive pool capacity (mail, offline replay)",
		Header: []string{"pool", "hits", "final capacity"},
		Rows:   rows,
	}
}

// --------------------------------------------------------- background GC --

// AblationBGCRow is one soft-threshold setting.
type AblationBGCRow struct {
	Soft             int
	P99              int64
	BackgroundCycles int64
	ForegroundRuns   int64
}

// AblationBGCResult measures idle-time erasure of dead blocks under a
// bursty cyclic-overwrite workload.
type AblationBGCResult struct{ Rows []AblationBGCRow }

// RunAblationBGC compares foreground-only GC with the background
// (soft-threshold) extension.
func RunAblationBGC(o Options) (*AblationBGCResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// Bursty cyclic overwrites: bursts of back-to-back writes with long
	// idle gaps; whole blocks die in order.
	var recs []trace.Record
	now := int64(0)
	v := uint64(0)
	footprint := int64(9000)
	bursts := int(o.Requests / 50)
	if bursts > 2400 {
		bursts = 2400
	}
	for burst := 0; burst < bursts; burst++ {
		for i := 0; i < 50; i++ {
			now += 20
			v++
			recs = append(recs, trace.Record{
				Time: now, Op: trace.OpWrite,
				LBA:  v % uint64(footprint),
				Hash: trace.HashOfValue(v % 4000),
			})
		}
		now += 60_000
	}
	var res AblationBGCResult
	for _, soft := range []int{0, 4} {
		cfg := sim.Config{
			Geometry:     sim.GeometryFor(footprint, 0.85),
			Latency:      ssd.PaperLatency(),
			Store:        ftl.StoreConfig{GCFreeBlockThreshold: 2, SoftGCThreshold: soft},
			LogicalPages: footprint,
			Kind:         sim.KindBaseline,
			PoolKind:     sim.PoolMQ,
			MQ:           core.MQConfig{Queues: 8, Capacity: 1000, DefaultLifetime: 8192},
			Faults:       o.Faults,
			Scrub:        o.Scrub,
			Health:       o.Health,
		}
		_, run, err := runDevice(cfg, recs, footprint)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationBGCRow{
			Soft:             soft,
			P99:              run.All.P99,
			BackgroundCycles: run.Metrics.GC.Background,
			ForegroundRuns:   run.Metrics.GC.Runs - run.Metrics.GC.Background,
		})
	}
	return &res, nil
}

// Table renders the background-GC ablation.
func (r *AblationBGCResult) Table() Table {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		label := "foreground only"
		if row.Soft > 0 {
			label = fmt.Sprintf("background (soft=%d)", row.Soft)
		}
		rows = append(rows, []string{
			label, usec(float64(row.P99)), i64(row.BackgroundCycles), i64(row.ForegroundRuns),
		})
	}
	return Table{
		Title:  "Ablation: background GC (bursty cyclic overwrites)",
		Header: []string{"mode", "p99", "background cycles", "foreground cycles"},
		Rows:   rows,
	}
}
