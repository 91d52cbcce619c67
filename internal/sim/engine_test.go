package sim

import (
	"reflect"
	"strings"
	"testing"

	"zombiessd/internal/fault"
	"zombiessd/internal/ftl"
	"zombiessd/internal/health"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// tenantDevice builds a device sized for the tenant set's combined
// footprint at high utilization, so GC is active in engine tests.
func tenantDevice(t *testing.T, kind Kind, footprint int64) Device {
	t.Helper()
	cfg := testConfig(kind, footprint)
	cfg.Geometry = GeometryFor(footprint, 0.85)
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func mustGenerate(t *testing.T, spec string, requests, seed int64) []TenantTrace {
	t.Helper()
	cfgs, err := ParseTenants(spec)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := GenerateTenants(cfgs, requests, seed)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// TestRunTenantsSingleMatchesRun pins the degenerate-case contract: a
// single tenant under any work-conserving arbiter with unlimited depth
// must reproduce the single-submitter runner exactly.
func TestRunTenantsSingleMatchesRun(t *testing.T) {
	recs := redundantTrace(6000)
	want := mustRun(t, KindDVP, recs)
	for _, arb := range []ArbiterKind{ArbFIFO, ArbWRR, ArbTokenBucket} {
		dev, err := NewDevice(testConfig(KindDVP, testFootprint))
		if err != nil {
			t.Fatal(err)
		}
		mr, err := RunTenants(dev, []TenantTrace{{
			Cfg:       TenantConfig{Name: "host", Weight: 1},
			Recs:      recs,
			Footprint: testFootprint,
		}}, EngineOptions{
			Arbiter:           arb,
			PreconditionPages: testFootprint,
			LogicalPages:      testFootprint,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mr.Result, want) {
			t.Errorf("%v: single-tenant engine result diverged from Run:\n got %+v\nwant %+v",
				arb, mr.Result, want)
		}
		if len(mr.Tenants) != 1 || mr.Tenants[0].Requests != int64(len(recs)) {
			t.Errorf("%v: tenant breakdown wrong: %+v", arb, mr.Tenants)
		}
	}
}

// TestRunTenantsDeterministic runs the same 2-tenant configuration twice
// on fresh devices: a multi-tenant run is a pure function of
// (seeds, config), so every field must match exactly.
func TestRunTenantsDeterministic(t *testing.T) {
	run := func() MultiResult {
		traces := mustGenerate(t, "mail,trans:ia=0.5", 6000, 42)
		fp := TotalFootprint(traces)
		dev := tenantDevice(t, KindDVP, fp)
		mr, err := RunTenants(dev, traces, EngineOptions{
			Arbiter:           ArbWRR,
			QueueDepth:        4,
			DeviceSlots:       4,
			PreconditionPages: fp,
			LogicalPages:      fp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated multi-tenant runs diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// TestDeviceSlotsBackpressure checks the shared slot bound creates real
// queueing — positive arbiter holds — while every admitted request still
// completes (admitted + rejected = trace length per tenant).
func TestDeviceSlotsBackpressure(t *testing.T) {
	run := func(qd, slots int) MultiResult {
		traces := mustGenerate(t, "mail:ia=0.2,trans:ia=0.2", 6000, 7)
		fp := TotalFootprint(traces)
		dev := tenantDevice(t, KindBaseline, fp)
		mr, err := RunTenants(dev, traces, EngineOptions{
			Arbiter:           ArbWRR,
			QueueDepth:        qd,
			DeviceSlots:       slots,
			PreconditionPages: fp,
			LogicalPages:      fp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mr
	}

	bounded := run(16, 1)
	var held bool
	for i, tr := range bounded.Tenants {
		if tr.Wait.Max > 0 {
			held = true
		}
		traceLen := tr.Requests + tr.Rejected
		if traceLen == 0 {
			t.Errorf("tenant %d processed nothing", i)
		}
	}
	if !held {
		t.Error("DeviceSlots=1 produced no arbiter holds; shared bound is not binding")
	}

	open := run(0, 0)
	for i, tr := range open.Tenants {
		if tr.Wait.Max != 0 {
			t.Errorf("tenant %d held %dµs with unlimited slots", i, tr.Wait.Max)
		}
		if tr.Rejected != 0 {
			t.Errorf("tenant %d rejected %d with no admission bound", i, tr.Rejected)
		}
	}
}

// TestCrossTenantSubsidy pins the revival ledger: two mail tenants
// sharing a content space subsidize each other symmetrically (what t0
// revives from t1's garbage is exactly what t1 reports revived-by-other),
// and private value spaces eliminate the subsidy entirely.
func TestCrossTenantSubsidy(t *testing.T) {
	run := func(spec string) MultiResult {
		traces := mustGenerate(t, spec, 8000, 11)
		fp := TotalFootprint(traces)
		dev := tenantDevice(t, KindDVP, fp)
		mr, err := RunTenants(dev, traces, EngineOptions{
			Arbiter:           ArbFIFO,
			PreconditionPages: fp,
			LogicalPages:      fp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mr
	}

	shared := run("mail*2")
	s0, s1 := shared.Tenants[0].Store, shared.Tenants[1].Store
	if s0.RevivedOther != s1.RevivedByOther || s1.RevivedOther != s0.RevivedByOther {
		t.Errorf("subsidy ledger asymmetric: t0 %+v, t1 %+v", s0, s1)
	}
	if s0.RevivedOther+s1.RevivedOther == 0 {
		t.Error("shared content space produced no cross-tenant revivals")
	}
	if s0.RevivedSelf+s1.RevivedSelf == 0 {
		t.Error("no self revivals at all; DVP machinery looks dead")
	}

	private := run("mail*2:values=private")
	p0, p1 := private.Tenants[0].Store, private.Tenants[1].Store
	if p0.RevivedOther != 0 || p1.RevivedOther != 0 || p0.RevivedByOther != 0 || p1.RevivedByOther != 0 {
		t.Errorf("private value spaces still subsidized: t0 %+v, t1 %+v", p0, p1)
	}
}

// TestMultiResultAggregates checks the per-tenant breakdown ties out to
// the aggregate: request counts sum, and per-tenant device-metric deltas
// sum to the whole run's metrics.
func TestMultiResultAggregates(t *testing.T) {
	traces := mustGenerate(t, "mail,web,trans", 6000, 5)
	fp := TotalFootprint(traces)
	dev := tenantDevice(t, KindDVP, fp)
	mr, err := RunTenants(dev, traces, EngineOptions{
		Arbiter:           ArbWRR,
		QueueDepth:        8,
		DeviceSlots:       8,
		PreconditionPages: fp,
		LogicalPages:      fp,
	})
	if err != nil {
		t.Fatal(err)
	}
	var reqs int64
	var metrics DeviceMetrics
	for _, tr := range mr.Tenants {
		reqs += tr.Requests
		metrics = metrics.Add(tr.Metrics)
	}
	if reqs != int64(mr.All.Count) {
		t.Errorf("tenant requests sum %d, aggregate count %d", reqs, int64(mr.All.Count))
	}
	if metrics != mr.Metrics {
		t.Errorf("per-tenant metric deltas do not sum to the aggregate:\n sum %+v\n all %+v",
			metrics, mr.Metrics)
	}
	var hostPrograms int64
	for _, tr := range mr.Tenants {
		hostPrograms += tr.Store.HostPrograms
	}
	if hostPrograms != mr.Metrics.HostPrograms() {
		t.Errorf("store ledger host programs %d, device metrics %d",
			hostPrograms, mr.Metrics.HostPrograms())
	}
}

func TestRunTenantsValidation(t *testing.T) {
	traces := mustGenerate(t, "mail", 2000, 1)
	fp := TotalFootprint(traces)
	cases := []struct {
		name string
		mut  func(*[]TenantTrace, *EngineOptions)
		want string
	}{
		{"no tenants", func(tt *[]TenantTrace, _ *EngineOptions) { *tt = nil }, "no tenants"},
		{"zero logical", func(_ *[]TenantTrace, o *EngineOptions) { o.LogicalPages = 0 }, "LogicalPages"},
		{"negative qd", func(_ *[]TenantTrace, o *EngineOptions) { o.QueueDepth = -1 }, "queue depth"},
		{"negative slots", func(_ *[]TenantTrace, o *EngineOptions) { o.DeviceSlots = -2 }, "device slots"},
		{"precondition too big", func(_ *[]TenantTrace, o *EngineOptions) { o.PreconditionPages = o.LogicalPages + 1 }, "precondition"},
		{"footprint overflow", func(tt *[]TenantTrace, _ *EngineOptions) { (*tt)[0].Footprint *= 100 }, "exceed logical space"},
		{"zero footprint", func(tt *[]TenantTrace, _ *EngineOptions) { (*tt)[0].Footprint = 0 }, "footprint"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tt := make([]TenantTrace, len(traces))
			copy(tt, traces)
			opts := EngineOptions{LogicalPages: fp}
			c.mut(&tt, &opts)
			dev := tenantDevice(t, KindBaseline, fp)
			_, err := RunTenants(dev, tt, opts)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

// chargingDevice is the reference model of per-tenant metric charging. It
// snapshots Metrics around every Write and Read and charges the delta to
// the tenant whose LPN range holds the page, skipping the leading precond
// writes (the preconditioning fill, which no tenant owns). It forwards
// Store and Bus, so the engine sees the inner device's store, telemetry and
// utilisation exactly as unwrapped.
type chargingDevice struct {
	inner   Device
	bases   []int64 // first LPN of each tenant's range, ascending
	precond int64
	per     []DeviceMetrics
}

func newChargingDevice(inner Device, tenants []TenantTrace, precond int64) *chargingDevice {
	d := &chargingDevice{inner: inner, precond: precond, per: make([]DeviceMetrics, len(tenants))}
	var base int64
	for _, t := range tenants {
		d.bases = append(d.bases, base)
		base += t.Footprint
	}
	return d
}

// owner returns the tenant whose range holds lpn.
func (d *chargingDevice) owner(lpn ftl.LPN) int {
	t := 0
	for t+1 < len(d.bases) && int64(lpn) >= d.bases[t+1] {
		t++
	}
	return t
}

func (d *chargingDevice) charge(lpn ftl.LPN, call func() (ssd.Time, error)) (ssd.Time, error) {
	before := d.inner.Metrics()
	done, err := call()
	t := d.owner(lpn)
	d.per[t] = d.per[t].Add(d.inner.Metrics().Sub(before))
	return done, err
}

func (d *chargingDevice) Write(lpn ftl.LPN, h trace.Hash, now ssd.Time) (ssd.Time, error) {
	if d.precond > 0 {
		d.precond--
		return d.inner.Write(lpn, h, now)
	}
	return d.charge(lpn, func() (ssd.Time, error) { return d.inner.Write(lpn, h, now) })
}

func (d *chargingDevice) Read(lpn ftl.LPN, now ssd.Time) (ssd.Time, error) {
	return d.charge(lpn, func() (ssd.Time, error) { return d.inner.Read(lpn, now) })
}

func (d *chargingDevice) Metrics() DeviceMetrics { return d.inner.Metrics() }
func (d *chargingDevice) Store() *ftl.Store      { return StoreOf(d.inner) }
func (d *chargingDevice) Bus() *ssd.Bus {
	return d.inner.(interface{ Bus() *ssd.Bus }).Bus()
}

// TestTenantMetricsMatchPerRequestCharging checks the engine's deferred
// per-tenant metric charging (a snapshot only when the dispatched tenant
// changes) against charging every single device call to its owner: the
// totals must agree field for field, on a 2-tenant WRR run of the DVP
// drive and on a governed run whose rejected writes reach the device.
func TestTenantMetricsMatchPerRequestCharging(t *testing.T) {
	check := func(t *testing.T, dev Device, tenants []TenantTrace, opts EngineOptions) MultiResult {
		t.Helper()
		ref := newChargingDevice(dev, tenants, opts.PreconditionPages)
		mr, err := RunTenants(ref, tenants, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range mr.Tenants {
			if tr.Metrics != ref.per[i] {
				t.Errorf("tenant %s metrics diverge from per-call charging:\n engine %+v\n ref    %+v",
					tr.Name, tr.Metrics, ref.per[i])
			}
		}
		return mr
	}

	t.Run("wrr-dvp", func(t *testing.T) {
		traces := mustGenerate(t, "mail,trans:ia=0.5", 40000, 42)
		fp := TotalFootprint(traces)
		mr := check(t, tenantDevice(t, KindDVP, fp), traces, EngineOptions{
			Arbiter:           ArbWRR,
			QueueDepth:        4,
			DeviceSlots:       4,
			PreconditionPages: fp,
			LogicalPages:      fp,
		})
		for _, tr := range mr.Tenants {
			if tr.Metrics.HostWrites == 0 || tr.Metrics.FlashPrograms == 0 {
				t.Errorf("tenant %s charged no writes: %+v", tr.Name, tr.Metrics)
			}
		}
		if mr.Metrics.GC.Runs == 0 || mr.Metrics.Revived == 0 {
			t.Errorf("run exercised neither GC nor revival: %+v", mr.Metrics)
		}
	})

	t.Run("rejected-writes", func(t *testing.T) {
		cfg := testConfig(KindBaseline, testFootprint)
		cfg.Faults = fault.Config{Seed: 11, EraseFailProb: 1}
		cfg.Health = health.Config{MaxRetries: 1}
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mr := check(t, dev, noSpaceTenants(4000, testFootprint/2), EngineOptions{
			LogicalPages: testFootprint,
		})
		var rejected int64
		for _, tr := range mr.Tenants {
			rejected += tr.WritesRejected
		}
		if rejected == 0 {
			t.Error("no writes rejected; the read-only path went unexercised")
		}
	})
}
