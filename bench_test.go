// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact), the design-choice ablations called out in
// DESIGN.md, and micro-benchmarks of the core data structures.
//
// The per-figure benchmarks report the figure's headline number as a custom
// metric (e.g. meanWriteRed% for Fig 9) so `go test -bench=.` doubles as a
// compact reproduction log; EXPERIMENTS.md records the full-scale runs.
package zombiessd_test

import (
	"fmt"
	"testing"

	"zombiessd/internal/analysis"
	"zombiessd/internal/core"
	"zombiessd/internal/experiments"
	"zombiessd/internal/ftl"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/stats"
	"zombiessd/internal/trace"
	"zombiessd/internal/workload"
)

// benchOpts keeps one benchmark iteration around a second.
func benchOpts() experiments.Options {
	return experiments.Options{Requests: 60_000, Days: 2, Seed: 1, Utilization: 0.75}
}

// ------------------------------------------------- per-figure benchmarks --

func BenchmarkFig1ReuseProbability(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(o)
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, row := range res.Rows {
			if row.RawProb > best {
				best = row.RawProb
			}
		}
		b.ReportMetric(best*100, "maxReuse%")
	}
}

func BenchmarkFig2InvalidationCDF(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LiveFraction*100, "liveValues%")
	}
}

func BenchmarkFig3LifecycleCDFs(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Writes[1].MetricFrac*100, "top20Writes%")
		b.ReportMetric(res.Rebirths[1].MetricFrac*100, "top20Rebirths%")
	}
}

func BenchmarkFig4PopularityTiming(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(o)
		if err != nil {
			b.Fatal(err)
		}
		top := res.Bins[len(res.Bins)-1]
		b.ReportMetric(top.AvgRebirths, "topDegreeRebirths")
	}
}

func BenchmarkFig5LRUSweep(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(o)
		if err != nil {
			b.Fatal(err)
		}
		// Gap between the smallest buffer and infinite on the first day of
		// mail — the motivation for MQ.
		first := res.Rows[0]
		small := float64(first.Points[0].Writes)
		inf := float64(first.Points[len(first.Points)-1].Writes)
		b.ReportMetric(stats.ReductionPct(small, inf), "m1SmallVsInf%")
	}
}

func BenchmarkFig6LRUMisses(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(o)
		if err != nil {
			b.Fatal(err)
		}
		top := res.Bins[len(res.Bins)-1]
		b.ReportMetric(top.AvgMisses, "topDegreeMisses")
	}
}

func BenchmarkTable2WorkloadStats(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 6 {
			b.Fatalf("want 6 workloads, got %d", len(res.Rows))
		}
	}
}

func BenchmarkFig9WriteReduction(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Mean200K, "meanWriteRed%")
		b.ReportMetric(res.Max200, "maxWriteRed%")
	}
}

func BenchmarkFig10EraseReduction(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Mean, "meanEraseRed%")
	}
}

func BenchmarkFig11MeanLatency(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig11(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DVPMean, "dvpLatImprove%")
		b.ReportMetric(res.LXMean, "lxLatImprove%")
	}
}

func BenchmarkFig12TailLatency(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig12(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Mean, "p99Improve%")
	}
}

func BenchmarkFig14DedupWrites(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig14(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ExtraOverDedup, "extraOverDedup%")
	}
}

func BenchmarkFig15DedupLatency(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig15(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ExtraOverDedup, "extraLatOverDedup%")
	}
}

// ------------------------------------------------------------ ablations --

// BenchmarkAblationPolicy compares the dead-value pool replacement policies
// (MQ vs LRU vs infinite) at equal capacity on the offline mail replay.
func BenchmarkAblationPolicy(b *testing.B) {
	p, _ := workload.ProfileByName("mail")
	recs, err := workload.Generate(p, 120_000, 3)
	if err != nil {
		b.Fatal(err)
	}
	caps := []int{3000}
	b.Run("lru", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts := analysis.LRUWriteSweep(recs, caps)
			b.ReportMetric(float64(pts[0].Hits), "hits")
		}
	})
	b.Run("mq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts := analysis.MQWriteSweep(recs, caps, 8)
			b.ReportMetric(float64(pts[0].Hits), "hits")
		}
	})
	b.Run("infinite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts := analysis.LRUWriteSweep(recs, []int{0})
			b.ReportMetric(float64(pts[0].Hits), "hits")
		}
	})
}

// BenchmarkAblationQueueCount sweeps the MQ queue count (DESIGN.md: the
// paper fixes 8 after its own sensitivity study).
func BenchmarkAblationQueueCount(b *testing.B) {
	p, _ := workload.ProfileByName("mail")
	recs, err := workload.Generate(p, 120_000, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("queues-%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := analysis.MQWriteSweep(recs, []int{3000}, q)
				b.ReportMetric(float64(pts[0].Hits), "hits")
			}
		})
	}
}

// BenchmarkAblationGC toggles popularity-aware GC victim selection on the
// same DVP device (web, which keeps GC busy) and reports the revival rate:
// with the popularity term, blocks holding hot zombies are spared, so more
// revivals survive to happen.
func BenchmarkAblationGC(b *testing.B) {
	p, _ := workload.ProfileByName("web")
	recs, err := workload.Generate(p, 60_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	var footprint int64
	for _, r := range recs {
		if int64(r.LBA) >= footprint {
			footprint = int64(r.LBA) + 1
		}
	}
	run := func(b *testing.B, weight float64) {
		cfg := sim.Config{
			Geometry:     sim.GeometryFor(footprint, 0.80),
			Latency:      ssd.PaperLatency(),
			Store:        ftl.StoreConfig{GCFreeBlockThreshold: 2, PopularityWeight: weight},
			LogicalPages: footprint,
			Kind:         sim.KindDVP,
			PoolKind:     sim.PoolMQ,
			MQ:           core.MQConfig{Queues: 8, Capacity: 3000, DefaultLifetime: 8192},
		}
		dev, err := sim.NewDevice(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(dev, recs, sim.RunOptions{LogicalPages: footprint, PreconditionPages: footprint})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.Revived), "revivals")
		b.ReportMetric(float64(res.Metrics.Pool.Drops), "poolDropsByGC")
	}
	b.Run("popularity-aware", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, sim.DefaultPopularityWeight)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, 0)
		}
	})
}

// BenchmarkAblationPopularitySource contrasts write-only popularity (DVP)
// with read+write popularity and address recency (LX-SSD) end to end.
func BenchmarkAblationPopularitySource(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMatrix(o, []string{"web"},
			[]experiments.System{experiments.SysBaseline, experiments.SysDVP200K, experiments.SysLX})
		if err != nil {
			b.Fatal(err)
		}
		base := float64(m.Results["web"][experiments.SysBaseline].Metrics.HostPrograms())
		b.ReportMetric(stats.ReductionPct(base,
			float64(m.Results["web"][experiments.SysDVP200K].Metrics.HostPrograms())), "dvpWriteRed%")
		b.ReportMetric(stats.ReductionPct(base,
			float64(m.Results["web"][experiments.SysLX].Metrics.HostPrograms())), "lxWriteRed%")
	}
}

// ------------------------------------------------------ micro-benchmarks --

func BenchmarkMQPoolInsertLookup(b *testing.B) {
	ledger := core.NewLedger()
	pool := core.NewMQPool(core.MQConfig{Queues: 8, Capacity: 100_000, DefaultLifetime: 8192}, ledger)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := trace.HashOfValue(uint64(i % 200_000))
		ledger.Bump(h)
		if _, ok := pool.Lookup(h, int64(i)); !ok {
			pool.Insert(h, ssd.PPN(i), int64(i))
		}
	}
}

func BenchmarkLRUPoolInsertLookup(b *testing.B) {
	ledger := core.NewLedger()
	pool := core.NewLRUPool(100_000, ledger)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := trace.HashOfValue(uint64(i % 200_000))
		ledger.Bump(h)
		if _, ok := pool.Lookup(h, int64(i)); !ok {
			pool.Insert(h, ssd.PPN(i), int64(i))
		}
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	var h stats.Histogram
	for i := 0; i < b.N; i++ {
		h.Add(int64(i & 0xFFFF))
	}
}

func BenchmarkHistogramP99(b *testing.B) {
	var h stats.Histogram
	for i := 0; i < 100_000; i++ {
		h.Add(int64(i % 5000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.P99()
	}
}

func BenchmarkBusProgram(b *testing.B) {
	bus := ssd.NewBus(ssd.DefaultGeometry(), ssd.PaperLatency())
	pages := bus.Geometry().TotalPages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Program(ssd.PPN(int64(i)%pages), ssd.Time(i))
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	p, _ := workload.ProfileByName("mail")
	g, err := workload.NewGenerator(p, int64(b.N)+1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkHashOfValue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = trace.HashOfValue(uint64(i))
	}
}

// BenchmarkAblationAdaptiveCapacity contrasts a fixed undersized MQ pool
// with the self-tuning AdaptivePool extension (the paper's future work) on
// the mail replay: the controller should recover most of the hit rate a
// generously sized fixed pool gets.
func BenchmarkAblationAdaptiveCapacity(b *testing.B) {
	p, _ := workload.ProfileByName("mail")
	recs, err := workload.Generate(p, 120_000, 3)
	if err != nil {
		b.Fatal(err)
	}
	replay := func(pool core.Pool, ledger *core.Ledger) int64 {
		_, hits := analysis.ReplayPool(recs, pool, ledger)
		return hits
	}
	b.Run("fixed-small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := core.NewLedger()
			pool := core.NewMQPool(core.MQConfig{Queues: 8, Capacity: 1000, DefaultLifetime: 8192}, l)
			b.ReportMetric(float64(replay(pool, l)), "hits")
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := core.NewLedger()
			pool := core.NewAdaptivePool(core.AdaptiveConfig{
				MQ:          core.MQConfig{Queues: 8, Capacity: 1000, DefaultLifetime: 8192},
				MinCapacity: 250, MaxCapacity: 32_000, Window: 4096, Step: 0.25,
			}, l)
			b.ReportMetric(float64(replay(pool, l)), "hits")
			b.ReportMetric(float64(pool.Capacity()), "finalCapacity")
		}
	})
	b.Run("fixed-large", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := core.NewLedger()
			pool := core.NewMQPool(core.MQConfig{Queues: 8, Capacity: 32_000, DefaultLifetime: 8192}, l)
			b.ReportMetric(float64(replay(pool, l)), "hits")
		}
	})
}

// BenchmarkAblationBackgroundGC measures the p99 effect of the soft-
// threshold background GC extension under bursty arrivals: with idle gaps
// between bursts, background GC absorbs the reclamation work that would
// otherwise stall a request at the hard threshold. Each sub-benchmark runs
// the registered ablation-bgc experiment and reports its own row.
func BenchmarkAblationBackgroundGC(b *testing.B) {
	run := func(b *testing.B, row int) {
		res, err := experiments.RunAblationBGC(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		r := res.Rows[row]
		b.ReportMetric(float64(r.P99), "p99µs")
		b.ReportMetric(float64(r.BackgroundCycles), "bgCycles")
	}
	b.Run("foreground-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, 0)
		}
	})
	b.Run("background", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, 1)
		}
	})
}

// BenchmarkAblationHotColdStreams measures multi-stream lifetime
// separation end to end, in both regimes:
//
//   - mixed: one-shot cold writes interleaved with hot overwrites — the
//     single stream packs both lifetimes into every block, so GC victims
//     drag cold pages along; separation wins.
//   - web: the drift-window workload already writes in lifetime-correlated
//     bursts, so the single stream's temporal order is the better
//     clustering and naive two-stream steering loses — a negative result
//     worth keeping (multi-stream needs workload-aware steering).
func BenchmarkAblationHotColdStreams(b *testing.B) {
	mixed := func() ([]trace.Record, int64) {
		var recs []trace.Record
		now := int64(0)
		const hotSet = 3000
		coldNext := uint64(hotSet)
		v := uint64(0)
		for i := 0; i < 60_000; i++ {
			now += 100
			v++
			lba := v % hotSet // hot page, overwritten every hotSet writes
			if i%5 == 4 {
				lba = coldNext // cold page, written once, lives forever
				coldNext++
			}
			recs = append(recs, trace.Record{
				Time: now, Op: trace.OpWrite, LBA: lba,
				Hash: trace.HashOfValue(1<<40 + v),
			})
		}
		var fp int64
		for _, r := range recs {
			if int64(r.LBA) >= fp {
				fp = int64(r.LBA) + 1
			}
		}
		return recs, fp
	}

	web := func() ([]trace.Record, int64) {
		p, _ := workload.ProfileByName("web")
		recs, err := workload.Generate(p, 60_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		var fp int64
		for _, r := range recs {
			if int64(r.LBA) >= fp {
				fp = int64(r.LBA) + 1
			}
		}
		return recs, fp
	}

	run := func(b *testing.B, recs []trace.Record, footprint int64, hotCold bool) {
		// Deep planes (as on real drives) so the per-plane frontier and
		// reserve overhead of multi-streaming is negligible.
		geo := ssd.Geometry{
			Channels: 4, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
			PagesPerBlock: 128, PageSize: 4096, OverProvision: 0.15,
		}
		planes := int64(geo.TotalChips() * geo.PlanesPerChip())
		geo.BlocksPerPlane = int(float64(footprint)/(0.75*0.85*float64(planes*128))) + 1
		cfg := sim.Config{
			Geometry:       geo,
			Latency:        ssd.PaperLatency(),
			Store:          ftl.StoreConfig{GCFreeBlockThreshold: 2},
			LogicalPages:   footprint,
			Kind:           sim.KindBaseline,
			PoolKind:       sim.PoolMQ,
			MQ:             core.MQConfig{Queues: 8, Capacity: 1000, DefaultLifetime: 8192},
			HotColdStreams: hotCold,
		}
		dev, err := sim.NewDevice(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(dev, recs, sim.RunOptions{LogicalPages: footprint, PreconditionPages: footprint})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.GC.Relocated), "relocations")
		b.ReportMetric(float64(res.Metrics.FlashErases), "erases")
	}
	mixedRecs, mixedFP := mixed()
	webRecs, webFP := web()
	b.Run("mixed/single-stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, mixedRecs, mixedFP, false)
		}
	})
	b.Run("mixed/hot-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, mixedRecs, mixedFP, true)
		}
	})
	b.Run("web/single-stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, webRecs, webFP, false)
		}
	})
	b.Run("web/hot-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, webRecs, webFP, true)
		}
	})
}

// BenchmarkAblationWriteBuffer tests Section VII's software-caching claim
// end to end: a DRAM write-back buffer in front of the drive absorbs some
// duplicate writes, but the dead-value pool still removes a large share of
// the flash programs that get past it.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	p, _ := workload.ProfileByName("mail")
	recs, err := workload.Generate(p, 60_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	var footprint int64
	for _, r := range recs {
		if int64(r.LBA) >= footprint {
			footprint = int64(r.LBA) + 1
		}
	}
	run := func(b *testing.B, kind sim.Kind, bufPages int) sim.Result {
		cfg := sim.Config{
			Geometry:         sim.GeometryFor(footprint, 0.75),
			Latency:          ssd.PaperLatency(),
			Store:            ftl.StoreConfig{GCFreeBlockThreshold: 2},
			LogicalPages:     footprint,
			Kind:             kind,
			PoolKind:         sim.PoolMQ,
			MQ:               core.MQConfig{Queues: 8, Capacity: 3000, DefaultLifetime: 8192},
			WriteBufferPages: bufPages,
		}
		if kind == sim.KindDVP {
			cfg.Store.PopularityWeight = sim.DefaultPopularityWeight
		}
		dev, err := sim.NewDevice(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(dev, recs, sim.RunOptions{LogicalPages: footprint, PreconditionPages: footprint})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	const bufPages = 2048
	b.Run("no-buffer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base := run(b, sim.KindBaseline, 0)
			dvp := run(b, sim.KindDVP, 0)
			b.ReportMetric(stats.ReductionPct(
				float64(base.Metrics.HostPrograms()), float64(dvp.Metrics.HostPrograms())), "dvpWriteRed%")
		}
	})
	b.Run("with-buffer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base := run(b, sim.KindBaseline, bufPages)
			dvp := run(b, sim.KindDVP, bufPages)
			b.ReportMetric(stats.ReductionPct(
				float64(base.Metrics.HostPrograms()), float64(dvp.Metrics.HostPrograms())), "dvpWriteRed%")
			b.ReportMetric(float64(base.Metrics.BufferAbsorbed), "bufferAbsorbed")
		}
	})
}
