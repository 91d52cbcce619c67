package sim

import (
	"errors"
	"testing"

	"zombiessd/internal/fault"
	"zombiessd/internal/ftl"
	"zombiessd/internal/rain"
	"zombiessd/internal/recovery"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// rainFootprint is sized so the drive survives losing a whole die: the
// test geometry exports ~2688 pages under width-4 striping, and after one
// of its eight dies retires the survivors also absorb the data members of
// every stripe whose parity home died with the die.
const rainFootprint = 1200

// rainTrace is redundantTrace over an explicit footprint, with a read
// mixed in every fifth record so dead-die pages get pulled through the
// on-demand reconstruction path, not just the rebuild daemon.
func rainTrace(n int, footprint int64) []trace.Record {
	recs := make([]trace.Record, 0, n)
	t := int64(0)
	for i := 0; i < n; i++ {
		t += 40
		lba := uint64(i*37) % uint64(footprint)
		if i%5 == 4 {
			recs = append(recs, trace.Record{Time: t, Op: trace.OpRead, LBA: lba})
			continue
		}
		val := uint64(i % 97)
		recs = append(recs, trace.Record{Time: t, Op: trace.OpWrite, LBA: lba, Hash: trace.HashOfValue(val)})
	}
	return recs
}

func rainTestConfig(kind Kind) Config {
	cfg := testConfig(kind, rainFootprint)
	cfg.RAIN = rain.Config{Enable: true}
	cfg.Faults.DieFailAtOp = rainFootprint + 500
	cfg.Faults.DieFailDie = 3
	return cfg
}

// TestRainWrapperPresence pins the zero-config guarantee at the device
// layer: without Config.RAIN (or any other daemon) no maintenance device
// is built and the store runs without a stripe tracker; with it, the
// maintenance device is outermost and the store tracks stripes.
func TestRainWrapperPresence(t *testing.T) {
	cfg := testConfig(KindDVP, testFootprint)
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dev.(*maintDevice); ok {
		t.Error("zero RAIN config built a maintenance wrapper")
	}
	if StoreOf(dev).RainEnabled() {
		t.Error("zero RAIN config armed the store's stripe tracker")
	}
	cfg = testConfig(KindDVP, rainFootprint)
	cfg.RAIN = rain.Config{Enable: true}
	rdev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rdev.(*maintDevice); !ok {
		t.Errorf("RAIN-enabled device is %T, want *maintDevice outermost", rdev)
	}
	if !StoreOf(rdev).RainEnabled() {
		t.Error("RAIN-enabled store has no stripe tracker")
	}
}

// runRainCrash replays rainTrace on a RAIN device that loses die 3
// mid-trace, cutting power at bus op crashAt (0 = never). On the crash it
// recovers, checks the stripe invariant and the rebuild plan's
// consistency, then finishes the trace; afterwards the rebuild daemon is
// drained and the end state must be fully healed: rebuild done, stripe
// invariant clean, zero lost pages, zero oracle violations.
func runRainCrash(t *testing.T, cfg Config, recs []trace.Record, crashAt int64) (opsAtFail, opsEnd int64, crashed bool) {
	t.Helper()
	cfg.Faults.CrashAtOp = crashAt
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChecked(dev, rainFootprint)
	if err != nil {
		t.Fatal(err)
	}
	store := StoreOf(dev)
	if err := c.Precondition(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		_, err := c.Do(rec)
		if opsAtFail == 0 && store.DieFailed() {
			opsAtFail = testBusOps(t, dev)
		}
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
		if err := store.CheckRain(); err != nil {
			t.Fatalf("stripe invariant broken right after recovery: %v", err)
		}
		if v := c.Verify(); len(v) > 0 {
			t.Fatalf("%d oracle violations after recovery, first: %v", len(v), v[0])
		}
		// The recovered rebuild plan must resume, not restart: its pending
		// set is exactly the valid pages still stranded on the dead die —
		// pages re-landed before the crash are durable and absent from it.
		if store.DieFailed() {
			snap := recovery.SnapshotOf(store)
			plan, err := recovery.BuildPlan(snap)
			if err != nil {
				t.Fatalf("rebuild plan after recovery: %v", err)
			}
			rp := recovery.Rebuild(store.Geometry(), snap, plan)
			pending := make(map[ssd.PPN]bool, len(rp.Pending))
			for _, p := range rp.Pending {
				pending[p] = true
			}
			for p := ssd.PPN(0); p < ssd.PPN(cfg.Geometry.TotalPages()); p++ {
				stranded := store.State(p) == ftl.PageValid && store.PageDead(p) && !store.LostPage(p)
				if stranded != pending[p] {
					t.Fatalf("rebuild plan at page %d: pending=%v, stranded=%v", p, pending[p], stranded)
				}
			}
		}
	}
	opsEnd = testBusOps(t, dev)

	if !store.DieFailed() {
		t.Fatal("die kill never fired")
	}
	for i := 0; !store.RebuildDone(); i++ {
		if i > int(cfg.Geometry.TotalPages())*4 {
			t.Fatalf("rebuild drain never finished (%d pages pending)", store.RebuildPending())
		}
		if err := store.RebuildTick(c.Shift + ssd.Time(recs[len(recs)-1].Time)); err != nil {
			t.Fatalf("rebuild drain: %v", err)
		}
	}
	if err := store.FlushParity(c.Shift + ssd.Time(recs[len(recs)-1].Time)); err != nil {
		t.Fatalf("final parity flush: %v", err)
	}
	if err := store.CheckRain(); err != nil {
		t.Fatalf("stripe invariant broken at end: %v", err)
	}
	if lost := store.LostPages(); lost != 0 {
		t.Errorf("%d pages lost; a die failure under parity must lose nothing", lost)
	}
	if v := c.Verify(); len(v) > 0 {
		t.Errorf("%d oracle violations at end, first: %v", len(v), v[0])
	}
	return opsAtFail, opsEnd, crashed
}

// TestCrashDuringRainRebuild cuts power at five points spread across the
// post-die-failure window — landing mid-rebuild-reconstruction,
// mid-parity-flush or mid-host-op as the op index falls — and requires
// recovery to come back with a consistent stripe invariant, a rebuild
// plan that resumes where the durable state says, and a fully healed,
// zero-loss end state.
func TestCrashDuringRainRebuild(t *testing.T) {
	recs := rainTrace(8000, rainFootprint)
	for _, kind := range []Kind{KindDVP, KindDVPDedup} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := rainTestConfig(kind)
			opsAtFail, opsEnd, _ := runRainCrash(t, cfg, recs, 0)
			if opsAtFail == 0 || opsEnd <= opsAtFail {
				t.Fatalf("pilot: die failed at bus op %d, trace ended at %d", opsAtFail, opsEnd)
			}
			window := opsEnd - opsAtFail
			for q := int64(1); q <= 5; q++ {
				crashAt := opsAtFail + q*window/6
				_, _, crashed := runRainCrash(t, cfg, recs, crashAt)
				if !crashed {
					t.Errorf("power loss at bus op %d never fired", crashAt)
				}
			}
		})
	}
}
