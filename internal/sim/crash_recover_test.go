package sim

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"zombiessd/internal/fault"
	"zombiessd/internal/ftl"
	"zombiessd/internal/lxssd"
	"zombiessd/internal/recovery"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// testStoreOf reaches the flash store of any device flavour.
func testStoreOf(t *testing.T, dev Device) *ftl.Store {
	t.Helper()
	s := StoreOf(dev)
	if s == nil {
		t.Fatalf("no store accessor for device %T", dev)
	}
	return s
}

func testBusOps(t *testing.T, dev Device) int64 {
	t.Helper()
	br, ok := dev.(interface{ Bus() *ssd.Bus })
	if !ok || br.Bus() == nil {
		t.Fatal("device has no bus")
	}
	r, p, e := br.Bus().Counts()
	return r + p + e
}

// replayWithCrash preconditions the footprint, replays recs with the
// integrity oracle attached, and — when the armed power loss fires —
// recovers, verifies, and finishes the trace. crashAt 0 never fires (the
// pilot). Any oracle violation fails the test.
func replayWithCrash(t *testing.T, cfg Config, recs []trace.Record, footprint, crashAt int64) (dev Device, opsPre int64, crashed bool) {
	t.Helper()
	cfg.Faults.CrashAtOp = crashAt
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChecked(dev, footprint)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Precondition(); err != nil {
		t.Fatal(err)
	}
	opsPre = testBusOps(t, dev)
	for i, rec := range recs {
		_, err := c.Do(rec)
		if err == nil {
			continue
		}
		if crashed || !errors.Is(err, fault.ErrPowerLoss) {
			t.Fatalf("record %d: %v", i, err)
		}
		crashed = true
		if _, err := c.Recover(err, RecoverOptions{}); err != nil {
			t.Fatalf("recovery at record %d: %v", i, err)
		}
		if v := c.Verify(); len(v) > 0 {
			t.Fatalf("%d oracle violations after recovery, first: %v", len(v), v[0])
		}
	}
	if v := c.Verify(); len(v) > 0 {
		t.Fatalf("%d oracle violations after finishing the trace, first: %v", len(v), v[0])
	}
	return dev, opsPre, crashed
}

// TestCrashRecoverEveryKind cuts power at three points of every device
// flavour's life — landing mid-write, mid-GC-relocation or mid-erase as
// the op index falls — and requires recovery plus a clean oracle pass.
func TestCrashRecoverEveryKind(t *testing.T) {
	recs := redundantTrace(8000)
	kinds := []struct {
		name string
		cfg  Config
	}{
		{"baseline", testConfig(KindBaseline, testFootprint)},
		{"dvp", testConfig(KindDVP, testFootprint)},
		{"dvp+dedup", testConfig(KindDVPDedup, testFootprint)},
		{"lx", testConfig(KindLX, testFootprint)},
	}
	buffered := testConfig(KindDVP, testFootprint)
	buffered.WriteBufferPages = 64
	kinds = append(kinds, struct {
		name string
		cfg  Config
	}{"buffered", buffered})

	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			dev, opsPre, _ := replayWithCrash(t, k.cfg, recs, testFootprint, 0)
			window := testBusOps(t, dev) - opsPre
			if window <= 0 {
				t.Fatal("pilot issued no flash ops after preconditioning")
			}
			for _, q := range []int64{1, 2, 3} {
				crashAt := opsPre + q*window/4
				_, _, crashed := replayWithCrash(t, k.cfg, recs, testFootprint, crashAt)
				if !crashed {
					t.Errorf("power loss at op %d never fired", crashAt)
				}
			}
		})
	}
}

// TestCrashRecoverDeterminism requires recovery to be a pure function of
// the workload and crash point: two identical crashed runs must end with
// byte-identical durable state (OOB + journal snapshot), identical
// recovered content for every logical page, and identical metrics.
func TestCrashRecoverDeterminism(t *testing.T) {
	cfg := testConfig(KindDVP, testFootprint)
	recs := redundantTrace(8000)
	dev, opsPre, _ := replayWithCrash(t, cfg, recs, testFootprint, 0)
	crashAt := opsPre + (testBusOps(t, dev)-opsPre)/2

	run := func() ([]byte, []trace.Hash, DeviceMetrics) {
		dev, _, crashed := replayWithCrash(t, cfg, recs, testFootprint, crashAt)
		if !crashed {
			t.Fatalf("power loss at op %d never fired", crashAt)
		}
		snap := recovery.SnapshotOf(testStoreOf(t, dev)).Encode()
		hr := dev.(HashReader)
		hashes := make([]trace.Hash, testFootprint)
		for l := range hashes {
			hashes[l], _ = hr.ReadHash(ftl.LPN(l))
		}
		return snap, hashes, dev.Metrics()
	}
	snap1, hashes1, m1 := run()
	snap2, hashes2, m2 := run()
	if !bytes.Equal(snap1, snap2) {
		t.Error("durable snapshots differ across identical crashed runs")
	}
	if !reflect.DeepEqual(hashes1, hashes2) {
		t.Error("recovered page contents differ across identical crashed runs")
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("metrics differ across identical crashed runs:\n %+v\n %+v", m1, m2)
	}
}

// TestRecoveryRejectsPagesOutsideTheDrive feeds the dedup and LX-SSD
// rebuilds crafted plans whose pages or addresses lie past the drive: each
// must fail with an error naming the page, never panic in a sparse index.
func TestRecoveryRejectsPagesOutsideTheDrive(t *testing.T) {
	const logical, physical = 64, 128
	inside := recovery.Winner{LPN: 3, PPN: 9, Hash: trace.HashOfValue(1), Seq: 1}
	winners := map[string]recovery.Winner{
		"ppn": {LPN: 4, PPN: physical, Hash: trace.HashOfValue(2), Seq: 2},
		"lpn": {LPN: logical, PPN: 10, Hash: trace.HashOfValue(3), Seq: 3},
	}
	for name, w := range winners {
		plan := recovery.Plan{Winners: []recovery.Winner{inside, w}}
		if _, err := dedupMapperFrom(logical, physical, plan); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("dedup rebuild with an out-of-range %s: err %v, want an outside-the-drive error", name, err)
		}
	}
	if _, err := dedupMapperFrom(logical, physical, recovery.Plan{Winners: []recovery.Winner{inside}}); err != nil {
		t.Fatalf("dedup rebuild of an in-range plan: %v", err)
	}

	cfg := lxssd.Config{Capacity: 8, MinPopularity: 0}
	ok := recovery.GarbagePage{PPN: 5, LPN: 2, Hash: trace.HashOfValue(4), Seq: 1}
	garbage := map[string]recovery.GarbagePage{
		"ppn": {PPN: physical + 7, LPN: 2, Hash: trace.HashOfValue(5), Seq: 2},
		"lpn": {PPN: 6, LPN: logical, Hash: trace.HashOfValue(6), Seq: 3},
	}
	for name, g := range garbage {
		plan := recovery.Plan{Garbage: []recovery.GarbagePage{ok, g}}
		if _, err := lxPoolFrom(cfg, physical, logical, plan, false); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("LX-SSD rebuild with an out-of-range %s: err %v, want an outside-the-drive error", name, err)
		}
		// A cold pool reads no zombies, so the plan cannot hurt it.
		if _, err := lxPoolFrom(cfg, physical, logical, plan, true); err != nil {
			t.Errorf("cold LX-SSD rebuild: %v", err)
		}
	}
	pool, err := lxPoolFrom(cfg, physical, logical, recovery.Plan{Garbage: []recovery.GarbagePage{ok}}, false)
	if err != nil || pool.Len() != 1 {
		t.Fatalf("LX-SSD rebuild of an in-range plan: pool %v, err %v", pool, err)
	}
}
