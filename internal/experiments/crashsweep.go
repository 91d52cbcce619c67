package experiments

import (
	"errors"
	"fmt"

	"zombiessd/internal/fault"
	"zombiessd/internal/recovery"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// ------------------------------------------- sudden-power-loss crash sweep --

// DefaultCrashPoints is the number of power-loss points injected per
// architecture when Options.CrashPoints is 0.
const DefaultCrashPoints = 32

// crashSweepDivisor shrinks the sweep's trace relative to Options.Requests:
// every crash point replays the whole trace on a fresh device, so the
// sweep pays points × architectures full runs.
const crashSweepDivisor = 8

// crashSweepFloor keeps each replay long enough to cross GC and leave a
// crash window after preconditioning.
const crashSweepFloor = 3000

// crashWriteBufferPages sizes the DRAM write-back buffer of the sweep's
// buffered arm (1 MB of 4 KB pages).
const crashWriteBufferPages = 256

// CrashArm aggregates one architecture's sweep: every injected crash point
// recovered and verified, with the scan cost and the dead-value-pool
// hit-rate retention the re-seeding buys.
type CrashArm struct {
	Arch     string
	ColdPool bool // recovery skipped pool re-seeding (control arm)

	Points     int // crash points injected
	Crashed    int // points where the trigger actually fired (must equal Points)
	Violations int // integrity-oracle failures across all points (must be 0)

	MeanScanPages float64  // OOB pages read per recovery scan
	MeanScanTime  ssd.Time // scan cost at the paper's read latency
	MeanWinners   float64  // logical pages recovered per scan
	MeanGarbage   float64  // zombie pages found per scan
	MeanReplayed  float64  // journal records accepted per scan
	TornTotal     int64    // torn pages discarded across all points

	// Hit rates are means over crashed points: pre is the pool's rate at
	// the moment power failed, post the rate of the rebuilt pool over the
	// remainder of the trace.
	MeanPreHitRate  float64
	MeanPostHitRate float64
}

// Retention returns the post-recovery share of the pre-crash hit rate
// (0 when the arm had no pre-crash lookups).
func (a CrashArm) Retention() float64 {
	if a.MeanPreHitRate == 0 {
		return 0
	}
	return a.MeanPostHitRate / a.MeanPreHitRate
}

// CrashsweepResult is the rendered outcome of RunCrashsweep.
type CrashsweepResult struct {
	Workload string
	Requests int64
	Seed     int64
	Arms     []CrashArm
}

// crashPointResult is one device's life: precondition, crash, recover,
// verify, finish the trace, verify again.
type crashPointResult struct {
	crashed         bool
	violations      int
	report          recovery.Report
	preHR, postHR   float64
	opsPrecondition int64
	opsTotal        int64
}

// busOps sums the flash operations the device's bus has completed.
func busOps(dev sim.Device) int64 {
	br, ok := dev.(interface{ Bus() *ssd.Bus })
	if !ok || br.Bus() == nil {
		return 0
	}
	r, p, e := br.Bus().Counts()
	return r + p + e
}

// checkedDevice builds a fresh device from cfg under the checked replay,
// its footprint preconditioned.
func checkedDevice(cfg sim.Config, footprint int64) (sim.Device, *sim.Checked, error) {
	dev, err := sim.NewDevice(cfg)
	if err != nil {
		return nil, nil, err
	}
	c, err := sim.NewChecked(dev, footprint)
	if err != nil {
		return nil, nil, err
	}
	return dev, c, c.Precondition()
}

// runCrashPoint replays the trace on a fresh device armed to lose power at
// flash op crashAt (0 = never, the pilot), recovering and oracle-checking
// when the crash fires and again after the remaining requests.
func runCrashPoint(cfg sim.Config, recs []trace.Record, footprint, crashAt int64, cold bool) (crashPointResult, error) {
	var out crashPointResult
	cfg.Faults.CrashAtOp = crashAt
	dev, c, err := checkedDevice(cfg, footprint)
	if err != nil {
		return out, err
	}
	out.opsPrecondition = busOps(dev)

	for i, rec := range recs {
		_, err := c.Do(rec)
		if err == nil {
			continue
		}
		if !errors.Is(err, fault.ErrPowerLoss) || out.crashed {
			return out, fmt.Errorf("experiments: crash record %d: %w", i, err)
		}
		out.crashed = true
		out.preHR = dev.Metrics().Pool.HitRate()
		out.report, err = c.Recover(err, sim.RecoverOptions{ColdPool: cold})
		if err != nil {
			return out, fmt.Errorf("experiments: recovery at op %d: %w", crashAt, err)
		}
		out.violations += len(c.Verify())
	}
	out.opsTotal = busOps(dev)
	// Final check: the recovered device must have served the rest of the
	// trace without corrupting anything.
	out.violations += len(c.Verify())
	if out.crashed {
		out.postHR = dev.Metrics().Pool.HitRate()
	}
	return out, nil
}

// splitmix64 advances the crash-point RNG: tiny, seedable, deterministic.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// crashArchConfigs assembles the five swept architectures.
func crashArchConfigs(o Options, footprint int64) []arm {
	buffered := o.deviceConfig(sim.KindDVP, footprint, sim.PoolMQ, 200_000)
	buffered.WriteBufferPages = crashWriteBufferPages
	return []arm{
		{"baseline", o.deviceConfig(sim.KindBaseline, footprint, sim.PoolMQ, 200_000)},
		{"buffered", buffered},
		{"dvp+dedup", o.deviceConfig(sim.KindDVPDedup, footprint, sim.PoolMQ, 200_000)},
		{"lx-ssd", o.deviceConfig(sim.KindLX, footprint, sim.PoolMQ, 200_000)},
		{"dvp", o.deviceConfig(sim.KindDVP, footprint, sim.PoolMQ, 200_000)},
	}
}

// RunCrashsweep sweeps sudden-power-loss points across the five device
// architectures on the mail workload. For every point it cuts power
// mid-operation, runs the OOB recovery scan, checks the integrity oracle
// (every durably acknowledged page must read back its last acknowledged
// content), finishes the trace on the recovered device and checks again.
// The dvp arm runs twice — warm (pool re-seeded from the scan's zombie
// pages) and cold (control) — to measure what re-seeding retains of the
// pre-crash hit rate.
func RunCrashsweep(o Options) (*CrashsweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	points := o.CrashPoints
	if points == 0 {
		points = DefaultCrashPoints
	}
	small := o.scaled(crashSweepDivisor, crashSweepFloor)
	const workloadName = "mail"
	recs, footprint, err := small.traceFor(workloadName)
	if err != nil {
		return nil, err
	}
	archs := crashArchConfigs(small, footprint)

	// One pilot per architecture charts its op count; crash points land
	// uniformly in (precondition, end] — mid-write, mid-GC-relocation or
	// mid-erase, wherever the op index falls.
	pilots, err := runCells(archs, small.Jobs, func(a arm) (crashPointResult, error) {
		pilot, err := runCrashPoint(a.cfg, recs, footprint, 0, false)
		switch {
		case err != nil:
			return pilot, fmt.Errorf("experiments: crashsweep pilot %s: %w", a.name, err)
		case pilot.violations > 0:
			return pilot, fmt.Errorf("experiments: crashsweep pilot %s: %d oracle violations without a crash",
				a.name, pilot.violations)
		case pilot.opsTotal <= pilot.opsPrecondition:
			return pilot, fmt.Errorf("experiments: crashsweep pilot %s issued no flash ops after preconditioning", a.name)
		}
		return pilot, nil
	})
	if err != nil {
		return nil, err
	}

	// Every (arm, point) cell is an independent simulation; an arm's cells
	// are contiguous, points in schedule order.
	type crashCell struct {
		arm
		at   int64
		cold bool
	}
	var cells []crashCell
	out := &CrashsweepResult{Workload: workloadName, Requests: small.Requests, Seed: small.CrashSeed}
	for i, a := range archs {
		window := pilots[i].opsTotal - pilots[i].opsPrecondition
		state := uint64(small.CrashSeed)*0x9E3779B97F4A7C15 + uint64(i+1)
		ks := make([]int64, points)
		for j := range ks {
			ks[j] = pilots[i].opsPrecondition + 1 + int64(splitmix64(&state)%uint64(window))
		}
		for _, cold := range []bool{false, true} {
			if cold && (a.cfg.Kind != sim.KindDVP || a.cfg.WriteBufferPages != 0) {
				continue
			}
			out.Arms = append(out.Arms, CrashArm{Arch: a.name, ColdPool: cold, Points: points})
			for _, k := range ks {
				cells = append(cells, crashCell{a, k, cold})
			}
		}
	}
	results, err := runCells(cells, small.Jobs, func(c crashCell) (crashPointResult, error) {
		r, err := runCrashPoint(c.cfg, recs, footprint, c.at, c.cold)
		if err != nil {
			return r, fmt.Errorf("experiments: crashsweep %s op %d: %w", c.name, c.at, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	for ai := range out.Arms {
		agg := &out.Arms[ai]
		var preSum, postSum float64
		for _, r := range results[ai*points : (ai+1)*points] {
			if r.crashed {
				agg.Crashed++
			}
			agg.Violations += r.violations
			agg.MeanScanPages += float64(r.report.PagesScanned)
			agg.MeanWinners += float64(r.report.Winners)
			agg.MeanGarbage += float64(r.report.Garbage)
			agg.MeanReplayed += float64(r.report.JournalReplayed)
			agg.TornTotal += r.report.TornDiscarded
			preSum += r.preHR
			postSum += r.postHR
		}
		n := float64(points)
		agg.MeanScanPages /= n
		agg.MeanWinners /= n
		agg.MeanGarbage /= n
		agg.MeanReplayed /= n
		agg.MeanPreHitRate = preSum / n
		agg.MeanPostHitRate = postSum / n
		agg.MeanScanTime = recovery.Report{PagesScanned: int64(agg.MeanScanPages)}.ScanCost(ssd.PaperLatency().Read)
	}
	return out, nil
}

// Table renders the sweep.
func (r *CrashsweepResult) Table() Table {
	rows := make([][]string, 0, len(r.Arms))
	for _, a := range r.Arms {
		name := a.Arch
		if a.ColdPool {
			name += " (cold pool)"
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", a.Points),
			fmt.Sprintf("%d", a.Crashed),
			fmt.Sprintf("%d", a.Violations),
			fmt.Sprintf("%.0f", a.MeanScanPages),
			fmt.Sprintf("%.1f", float64(a.MeanScanTime)/float64(ssd.Millisecond)),
			fmt.Sprintf("%.0f", a.MeanWinners),
			fmt.Sprintf("%.0f", a.MeanGarbage),
			fmt.Sprintf("%.0f", a.MeanReplayed),
			pct(a.MeanPreHitRate * 100),
			pct(a.MeanPostHitRate * 100),
			pct(a.Retention() * 100),
		})
	}
	return Table{
		Title:  "Crashsweep: sudden-power-loss recovery across architectures",
		Header: []string{"arm", "points", "crashed", "violations", "scan pages", "scan ms", "winners", "zombies", "replayed", "pre HR", "post HR", "retention"},
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("workload %s, %d requests per point, crash seed %d", r.Workload, r.Requests, r.Seed),
			"each point cuts power mid-flash-op, scans every OOB page, rebuilds L2P by last-writer-wins,",
			"re-seeds the dead-value pool from surviving zombies (warm) and verifies every acknowledged page;",
			"post HR is the rebuilt pool's hit rate over the rest of the trace (cold = no re-seeding control).",
		},
	}
}
