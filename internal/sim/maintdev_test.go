package sim

import (
	"errors"
	"fmt"
	"testing"

	"zombiessd/internal/fault"
	"zombiessd/internal/ftl"
	"zombiessd/internal/health"
	"zombiessd/internal/rain"
	"zombiessd/internal/scrub"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// stubDevice scripts the inner device's responses so governor wiring can
// be tested without staging a real drive into each state.
type stubDevice struct {
	writeErrs []error // consumed one per Write call; empty = success
	writes    int
	reads     int
	lastNow   ssd.Time
}

func (d *stubDevice) Write(lpn ftl.LPN, h trace.Hash, now ssd.Time) (ssd.Time, error) {
	d.writes++
	d.lastNow = now
	if len(d.writeErrs) > 0 {
		err := d.writeErrs[0]
		d.writeErrs = d.writeErrs[1:]
		if err != nil {
			return 0, err
		}
	}
	return now + 100*ssd.Microsecond, nil
}

func (d *stubDevice) Read(lpn ftl.LPN, now ssd.Time) (ssd.Time, error) {
	d.reads++
	return now + 50*ssd.Microsecond, nil
}

func (d *stubDevice) Metrics() DeviceMetrics { return DeviceMetrics{} }

func TestHealthDeviceWrapOrder(t *testing.T) {
	cfg := testConfig(KindDVP, testFootprint)
	cfg.Health = health.Config{MaxRetries: 2}
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hd, ok := dev.(*maintDevice)
	if !ok {
		t.Fatalf("governed device is %T, want *maintDevice outermost", dev)
	}
	if hd.Store() == nil {
		t.Error("Store() lost through the health wrapper")
	}
	if hd.Bus() == nil {
		t.Error("Bus() lost through the health wrapper")
	}
	if st := hd.HealthStats(); st.State != health.Healthy || st.Transitions != 0 {
		t.Errorf("fresh governor reports %+v", st)
	}
	// Ungoverned config must not wrap.
	cfg.Health = health.Config{}
	dev, err = NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dev.(*maintDevice); ok {
		t.Error("disabled governor still wrapped the device")
	}
}

// TestAttachShadowUnwrapsMaintenance pins the oracle's durability boundary
// under every maintenance daemon: with a DRAM write buffer the shadow must
// hook the buffer's flushes (RAM-acknowledged writes are volatile), and
// without one every acknowledged write is durable.
func TestAttachShadowUnwrapsMaintenance(t *testing.T) {
	daemons := []struct {
		name string
		arm  func(*Config)
	}{
		{"health", func(c *Config) { c.Health = health.Config{MaxRetries: 2} }},
		{"rain", func(c *Config) { c.RAIN = rain.Config{Enable: true} }},
		{"partial-gc", func(c *Config) { c.Store.Preempt.PartialK = 4 }},
		{"scrub", func(c *Config) {
			c.Faults.Integrity = fault.IntegrityConfig{BaseRBER: 1e-6}
			c.Scrub = scrub.Config{Interval: ssd.Millisecond}
		}},
	}
	for _, dm := range daemons {
		for _, wbuf := range []int{0, 64} {
			t.Run(fmt.Sprintf("%s/wbuf=%d", dm.name, wbuf), func(t *testing.T) {
				cfg := testConfig(KindDVP, rainFootprint)
				cfg.WriteBufferPages = wbuf
				dm.arm(&cfg)
				dev, err := NewDevice(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := dev.(*maintDevice); !ok {
					t.Fatalf("device is %T, want *maintDevice", dev)
				}
				if _, needAck := AttachShadow(dev); needAck != (wbuf == 0) {
					t.Errorf("AttachShadow needAck = %v, want %v", needAck, wbuf == 0)
				}
			})
		}
	}
}

func TestHealthRetriesTransientProgramFault(t *testing.T) {
	inner := &stubDevice{writeErrs: []error{ftl.ErrProgramFault, ftl.ErrProgramFault, nil}}
	d := &maintDevice{inner: inner, gov: health.New(health.Config{MaxRetries: 3, RetryBackoff: 10 * ssd.Microsecond})}
	done, err := d.Write(1, trace.HashOfValue(1), 1000)
	if err != nil {
		t.Fatalf("write failed despite retry budget: %v", err)
	}
	if inner.writes != 3 {
		t.Errorf("inner.Write called %d times, want 3", inner.writes)
	}
	if want := ssd.Time(1000 + 2*10*ssd.Microsecond); inner.lastNow != want {
		t.Errorf("final attempt submitted at %d, want %d (two backoffs)", inner.lastNow, want)
	}
	if done <= 1000 {
		t.Errorf("done = %d", done)
	}
	if st := d.HealthStats(); st.Retries != 2 {
		t.Errorf("Retries = %d, want 2", st.Retries)
	}

	// A fault that outlives the budget escapes as ErrProgramFault.
	inner = &stubDevice{writeErrs: []error{ftl.ErrProgramFault, ftl.ErrProgramFault, ftl.ErrProgramFault}}
	d = &maintDevice{inner: inner, gov: health.New(health.Config{MaxRetries: 2})}
	if _, err := d.Write(1, trace.HashOfValue(1), 0); !errors.Is(err, ftl.ErrProgramFault) {
		t.Errorf("exhausted retries returned %v, want ErrProgramFault", err)
	}
	if inner.writes != 3 {
		t.Errorf("inner.Write called %d times, want 3 (1 + 2 retries)", inner.writes)
	}
}

func TestHealthNoSpaceForcesReadOnly(t *testing.T) {
	inner := &stubDevice{writeErrs: []error{ftl.ErrNoSpace}}
	d := &maintDevice{inner: inner, gov: health.New(health.Config{MaxRetries: 1})}
	_, err := d.Write(1, trace.HashOfValue(1), 0)
	if !errors.Is(err, health.ErrReadOnly) {
		t.Fatalf("ErrNoSpace surfaced as %v, want ErrReadOnly", err)
	}
	st := d.HealthStats()
	if st.State != health.ReadOnly || st.ForcedReadOnly != 1 || st.RejectedWrites != 1 {
		t.Fatalf("after ErrNoSpace: %+v", st)
	}
	// The pin is sticky (no configured free-block floor): later writes are
	// refused before reaching the drive, reads still flow.
	if _, err := d.Write(2, trace.HashOfValue(2), 100); !errors.Is(err, health.ErrReadOnly) {
		t.Fatalf("second write returned %v", err)
	}
	if inner.writes != 1 {
		t.Errorf("rejected write reached the inner device (%d calls)", inner.writes)
	}
	if _, err := d.Read(1, 200); err != nil {
		t.Errorf("read-only device refused a read: %v", err)
	}
	if st := d.HealthStats(); st.RejectedWrites != 2 {
		t.Errorf("RejectedWrites = %d, want 2", st.RejectedWrites)
	}
}

func TestHealthDeadRejectsEverything(t *testing.T) {
	inner := &stubDevice{}
	d := &maintDevice{inner: inner, gov: health.New(health.Config{DeadLostPages: 5})}
	// Push the governor to dead through its own ladder: the sample layer is
	// exercised end-to-end by the chaos soak, here we pin the wiring.
	if s := d.gov.Observe(health.Sample{LostPages: 5}, 0); s != health.Dead {
		t.Fatalf("Observe = %v, want dead", s)
	}
	if _, err := d.Write(1, trace.HashOfValue(1), 0); !errors.Is(err, health.ErrDeviceDead) {
		t.Errorf("write on dead device returned %v", err)
	}
	if _, err := d.Read(1, 0); !errors.Is(err, health.ErrDeviceDead) {
		t.Errorf("read on dead device returned %v", err)
	}
	if inner.writes != 0 || inner.reads != 0 {
		t.Errorf("dead device still forwarded operations: %d writes, %d reads", inner.writes, inner.reads)
	}
	st := d.HealthStats()
	if st.RejectedWrites != 1 || st.RejectedReads != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestHealthThrottleChargesDelay runs a real governed drive under GC
// pressure and checks throttled writes both happen and cost time.
func TestHealthThrottleChargesDelay(t *testing.T) {
	// A sparse trace (arrivals far apart) keeps the chips idle so the
	// throttle delay lands in end-to-end latency instead of being absorbed
	// by queueing.
	recs := make([]trace.Record, 6000)
	for i := range recs {
		recs[i] = trace.Record{
			Time: int64(i) * 2000,
			Op:   trace.OpWrite,
			LBA:  uint64(i*37) % testFootprint,
			Hash: trace.HashOfValue(uint64(i % 97)),
		}
	}
	run := func(h health.Config) Result {
		cfg := testConfig(KindBaseline, testFootprint)
		cfg.Store.GCFreeBlockThreshold = 4
		cfg.Health = h
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(dev, recs, RunOptions{
			LogicalPages: testFootprint, PreconditionPages: testFootprint,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(health.Config{})
	throttled := run(health.Config{ThrottleDebt: 1, ThrottleDelay: 500 * ssd.Microsecond})
	if throttled.Health.ThrottledWrites == 0 {
		t.Fatal("no writes throttled despite GC debt and a 1-block trip point")
	}
	if throttled.Writes.Mean <= free.Writes.Mean {
		t.Errorf("throttling did not cost write latency: mean %v vs %v",
			throttled.Writes.Mean, free.Writes.Mean)
	}
	if free.Health.ThrottledWrites != 0 || free.Health.State != health.Healthy {
		t.Errorf("ungoverned run reports governor activity: %+v", free.Health)
	}
}

// noSpaceTenants builds two write-only tenant streams big enough to wear a
// small erase-fail-everything drive out of free blocks mid-run.
func noSpaceTenants(perTenant int, footprint int64) []TenantTrace {
	mk := func(name string, valueBase uint64) TenantTrace {
		recs := make([]trace.Record, perTenant)
		for i := range recs {
			recs[i] = trace.Record{
				Time: int64(i) * 20,
				Op:   trace.OpWrite,
				LBA:  uint64(i) % uint64(footprint),
				Hash: trace.HashOfValue(valueBase + uint64(i)),
			}
		}
		return TenantTrace{
			Cfg:       TenantConfig{Name: name, Weight: 1},
			Recs:      recs,
			Footprint: footprint,
		}
	}
	return []TenantTrace{mk("a", 1<<32), mk("b", 2<<32)}
}

// TestRunTenantsNoSpace pins the graceful-degradation contract under space
// exhaustion: a drive that retires every erased block runs out of free
// blocks mid-run. Ungoverned, that kills the run with ErrNoSpace;
// governed, the run completes read-only with per-tenant rejection counts.
func TestRunTenantsNoSpace(t *testing.T) {
	run := func(h health.Config) (MultiResult, error) {
		cfg := testConfig(KindBaseline, testFootprint)
		cfg.Faults = fault.Config{Seed: 11, EraseFailProb: 1}
		cfg.Health = h
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return RunTenants(dev, noSpaceTenants(4000, testFootprint/2), EngineOptions{
			LogicalPages: testFootprint,
		})
	}

	if _, err := run(health.Config{}); !errors.Is(err, ftl.ErrNoSpace) {
		t.Fatalf("ungoverned run returned %v, want ErrNoSpace", err)
	}

	res, err := run(health.Config{MaxRetries: 1})
	if err != nil {
		t.Fatalf("governed run failed: %v", err)
	}
	if res.Health.State != health.ReadOnly {
		t.Errorf("final state %v, want read-only", res.Health.State)
	}
	if res.Health.ForcedReadOnly == 0 {
		t.Error("governor never recorded the ErrNoSpace trip")
	}
	var rejected, served int64
	for _, tr := range res.Tenants {
		rejected += tr.WritesRejected
		served += tr.Requests
	}
	if rejected == 0 {
		t.Error("no writes rejected on the read-only drive")
	}
	if served == 0 {
		t.Error("no writes served before exhaustion")
	}
	if res.Health.RejectedWrites != rejected {
		t.Errorf("governor counted %d rejections, tenants %d", res.Health.RejectedWrites, rejected)
	}
}
