package zombie_test

import (
	"strings"
	"testing"

	"zombiessd/zombie"
)

// TestEndToEndThroughPublicAPI exercises the whole documented flow using
// only the facade: workload → device → run → metrics → analysis.
func TestEndToEndThroughPublicAPI(t *testing.T) {
	profile, ok := zombie.ProfileByName("mail")
	if !ok {
		t.Fatal("mail profile missing")
	}
	recs, err := zombie.Generate(profile, 30_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	footprint := zombie.FootprintOf(recs)
	if footprint <= 0 {
		t.Fatal("empty footprint")
	}

	base := runKind(t, zombie.KindBaseline, footprint, recs)
	dvp := runKind(t, zombie.KindDVP, footprint, recs)

	if dvp.Metrics.Revived == 0 {
		t.Fatal("no revivals through the public API")
	}
	red := zombie.ReductionPct(float64(base.Metrics.HostPrograms()), float64(dvp.Metrics.HostPrograms()))
	if red <= 0 {
		t.Fatalf("write reduction = %.1f%%, want positive", red)
	}

	l := zombie.AnalyzeLifecycle(recs)
	if l.UniqueValues() == 0 {
		t.Fatal("lifecycle analysis empty")
	}
	rep := zombie.ReuseOpportunity(recs)
	if rep.RawReuseProb() <= 0 {
		t.Fatal("no reuse opportunity on mail")
	}
}

func runKind(t *testing.T, kind zombie.Kind, footprint int64, recs []zombie.Record) zombie.Result {
	t.Helper()
	cfg := zombie.DefaultConfig(kind, footprint)
	dev, err := zombie.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := zombie.Run(dev, recs, zombie.RunOptions{
		LogicalPages:      footprint,
		PreconditionPages: footprint,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDefaultConfigValidForAllKinds(t *testing.T) {
	for _, kind := range []zombie.Kind{
		zombie.KindBaseline, zombie.KindDVP, zombie.KindDedup,
		zombie.KindDVPDedup, zombie.KindLX,
	} {
		cfg := zombie.DefaultConfig(kind, 5000)
		if err := cfg.Validate(); err != nil {
			t.Errorf("DefaultConfig(%s) invalid: %v", kind, err)
		}
		if _, err := zombie.NewDevice(cfg); err != nil {
			t.Errorf("NewDevice(%s): %v", kind, err)
		}
	}
	for _, pk := range []zombie.PoolKind{
		zombie.PoolMQ, zombie.PoolLRU, zombie.PoolInfinite, zombie.PoolAdaptive,
	} {
		cfg := zombie.DefaultConfig(zombie.KindDVP, 5000)
		cfg.PoolKind = pk
		if _, err := zombie.NewDevice(cfg); err != nil {
			t.Errorf("NewDevice(dvp/%s): %v", pk, err)
		}
	}
	// Tiny footprints floor the pool size.
	cfg := zombie.DefaultConfig(zombie.KindDVP, 100)
	if cfg.MQ.Capacity < 64 {
		t.Errorf("tiny-footprint pool capacity = %d, want ≥64", cfg.MQ.Capacity)
	}
}

func TestPoolsThroughFacade(t *testing.T) {
	ledger := zombie.NewLedger()
	pool := zombie.NewMQPool(zombie.MQConfig{Queues: 8, Capacity: 100, DefaultLifetime: 64}, ledger)
	h := zombie.HashOfValue(7)
	ledger.Bump(h)
	pool.Insert(h, 42, 1)
	if ppn, ok := pool.Lookup(h, 2); !ok || ppn != 42 {
		t.Fatalf("facade pool Lookup = (%d,%v)", ppn, ok)
	}
	var _ zombie.Pool = zombie.NewLRUPool(10, ledger)
	var _ zombie.Pool = zombie.NewInfinitePool(ledger)
	var _ zombie.Pool = zombie.NewAdaptivePool(zombie.AdaptiveConfig{
		MQ:          zombie.MQConfig{Queues: 4, Capacity: 100, DefaultLifetime: 64},
		MinCapacity: 50, MaxCapacity: 500, Window: 128, Step: 0.25,
	}, ledger)
}

func TestFIUTraceThroughFacade(t *testing.T) {
	in := "100000 1 p 800 8 W 6 0 0123456789abcdef0123456789abcdef\n" +
		"200000 1 p 800 8 W 6 0 ffffffffffffffffffffffffffffffff\n" +
		"300000 1 p 808 8 W 6 0 0123456789abcdef0123456789abcdef\n"
	recs, err := zombie.ReadFIUTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	s := zombie.CollectStats(recs)
	if s.Writes != 3 || s.UniqueWriteValues != 2 {
		t.Fatalf("stats = %+v", s)
	}
	// The third write rebirths the first value; the reuse analysis must
	// see it.
	rep := zombie.ReuseOpportunity(recs)
	if rep.RawGarbageHits != 1 {
		t.Fatalf("RawGarbageHits = %d, want 1", rep.RawGarbageHits)
	}
}

func TestExperimentsThroughFacade(t *testing.T) {
	if len(zombie.Experiments()) < 14 {
		t.Fatalf("only %d experiments registered", len(zombie.Experiments()))
	}
	e, ok := zombie.ExperimentByID("fig2")
	if !ok {
		t.Fatal("fig2 missing")
	}
	opts := zombie.DefaultExperimentOptions()
	opts.Requests = 20_000
	res, err := e.Run(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Table().String(); !strings.Contains(out, "CDF") {
		t.Errorf("unexpected fig2 render: %q", out)
	}
}

func TestTableIGeometryThroughFacade(t *testing.T) {
	g := zombie.PaperGeometry()
	if g.RawBytes() != 1<<40 {
		t.Errorf("paper geometry = %d bytes, want 1 TiB", g.RawBytes())
	}
	lat := zombie.PaperLatency()
	if lat.Program != 400 {
		t.Errorf("program latency = %d, want 400µs", lat.Program)
	}
	small := zombie.GeometryFor(10_000, 0.8)
	if err := small.Validate(); err != nil {
		t.Errorf("GeometryFor invalid: %v", err)
	}
}
