package experiments

import (
	"errors"
	"fmt"

	"zombiessd/internal/fault"
	"zombiessd/internal/health"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// ------------------------------------------------------------- chaos soak --

// DefaultChaosCycles is the number of crash→recover→continue cycles the
// soak injects per architecture when Options.ChaosCycles is 0.
const DefaultChaosCycles = 6

// chaosSweepDivisor shrinks the soak's trace relative to Options.Requests:
// every architecture lives one full pilot life plus one full chaotic life.
const chaosSweepDivisor = 8

// chaosSweepFloor keeps each life long enough that GC pressure, erase
// failures and RBER aging actually accumulate between crashes — a short
// trace degenerates into a crash sweep with nothing for the governor to do.
const chaosSweepFloor = 20_000

// DefaultChaosHealthPlan is the governor plan the soak substitutes when
// Options.Health is disabled: throttle on sustained GC debt, go read-only
// near the free-block floor, declare death only on gross damage, and give
// transient program faults a few host-layer retries.
func DefaultChaosHealthPlan() health.Config {
	return health.Config{
		ThrottleDebt:   4,
		ReadOnlyFree:   2,
		DeadRetiredPct: 50,
		DeadLostPages:  256,
		MaxRetries:     4,
	}
}

// DefaultChaosFaultPlan is the reliability plan the soak substitutes when
// Options.Faults injects nothing: mild program and erase failure rates —
// enough that GC re-lands and block retirements actually happen across a
// life — composed with the scrubsweep's accelerated RBER decay so crash
// recovery runs against decaying flash, not perfect flash.
func DefaultChaosFaultPlan(seed int64) fault.Config {
	return fault.Config{
		Seed:            seed,
		ProgramFailProb: 5e-3,
		EraseFailProb:   5e-3,
		WearFactor:      0.02,
		Integrity:       DefaultIntegrityPlan(),
	}
}

// ChaosArm is one architecture's chaotic life: the scheduled crash cycles,
// what the oracle and the loss ledger found, and how far down the
// degradation ladder the drive ended.
type ChaosArm struct {
	Arch string

	Cycles     int   // crash cycles scheduled
	Crashes    int   // crashes that actually fired (must equal Cycles)
	Violations int   // integrity-oracle failures across every check (must be 0)
	LostPages  int64 // valid pages lost to uncorrectable reads (must be 0)

	Survived bool // reached the end of the trace without going dead

	// Stats is the governor's account of the life: the final state,
	// writes shed in read-only or dead states, writes that paid the
	// GC-debt throttle delay and host-layer retries of transient program
	// faults.
	health.Stats
	// Faults counts the store's fault activity, GC relocations re-landed
	// after a block went bad and blocks retired as bad among it.
	Faults fault.Stats

	ReadP99 ssd.Time
}

// ChaossweepResult is the rendered outcome of RunChaossweep.
type ChaossweepResult struct {
	Workload string
	Requests int64
	Seed     int64
	Cycles   int
	Arms     []ChaosArm
}

// chaosTenantRecs merges the antagonist tenant pair (victim mail stream +
// 4× trans aggressor) into one record stream for the soak's direct replay
// loop: tenant LBA spaces are stacked the way the engine stacks them, and
// records interleave by arrival time with ties broken by tenant order.
func chaosTenantRecs(o Options) ([]trace.Record, int64, error) {
	traces, err := sim.GenerateTenants(antagonistSet(), o.Requests, o.Seed)
	if err != nil {
		return nil, 0, err
	}
	bases := make([]uint64, len(traces))
	var base uint64
	total := 0
	for i, t := range traces {
		bases[i] = base
		base += uint64(t.Footprint)
		total += len(t.Recs)
	}
	idx := make([]int, len(traces))
	out := make([]trace.Record, 0, total)
	for {
		best := -1
		var bestTime int64
		for i, t := range traces {
			if idx[i] >= len(t.Recs) {
				continue
			}
			if rt := t.Recs[idx[i]].Time; best == -1 || rt < bestTime {
				best, bestTime = i, rt
			}
		}
		if best == -1 {
			break
		}
		r := traces[best].Recs[idx[best]]
		r.LBA += bases[best]
		out = append(out, r)
		idx[best]++
	}
	return out, sim.TotalFootprint(traces), nil
}

// runChaosLife replays the merged tenant trace on a fresh device:
// precondition, then replay under faults and decay with repeated
// crash→recover→continue cycles, the oracle checked after every recovery
// and once more at the end. schedule holds per-cycle op deltas: after
// preconditioning (and again after every recovery) the power-loss trigger
// is re-armed that many flash ops ahead. A nil schedule is the pilot: a
// crash-free life that charts the op window, the flash ops issued after
// preconditioning, which is returned alongside the life's arm.
func runChaosLife(cfg sim.Config, recs []trace.Record, footprint int64, schedule []int64) (ChaosArm, int64, error) {
	out := ChaosArm{Survived: true}
	cfg.Faults.CrashAtOp = 0
	dev, c, err := checkedDevice(cfg, footprint)
	if err != nil {
		return out, 0, err
	}
	store := sim.StoreOf(dev)
	if store == nil {
		return out, 0, fmt.Errorf("experiments: device %T exposes no store", dev)
	}
	opsPrecondition := busOps(dev)

	next := 0
	if next < len(schedule) {
		store.ArmCrash(schedule[next])
		next++
	}

	lats := make([]ssd.Time, 0, len(recs)/4)
replay:
	for i, rec := range recs {
		done, err := c.Do(rec)
		switch {
		case err == nil:
			if rec.Op == trace.OpRead {
				lats = append(lats, done-c.Shift-ssd.Time(rec.Time))
			}
		case errors.Is(err, fault.ErrPowerLoss):
			out.Crashes++
			if _, err := c.Recover(err, sim.RecoverOptions{}); err != nil {
				return out, 0, fmt.Errorf("experiments: chaos recovery after crash %d: %w", out.Crashes, err)
			}
			out.Violations += len(c.Verify())
			if next < len(schedule) {
				store.ArmCrash(schedule[next])
				next++
			}
		case errors.Is(err, health.ErrDeviceDead):
			// The drive is gone: stop submitting; the final oracle check
			// still runs against whatever flash state remains.
			out.Survived = false
			break replay
		case rec.Op == trace.OpWrite && errors.Is(err, health.ErrReadOnly):
			// Shed write on a degraded drive. It was never acknowledged, so
			// the oracle expects nothing from it.
		default:
			return out, 0, fmt.Errorf("experiments: chaos record %d: %w", i, err)
		}
	}
	window := busOps(dev) - opsPrecondition
	out.Violations += len(c.Verify())
	out.LostPages = store.LostPages()
	out.Faults = store.FaultStats()
	if hd, ok := dev.(interface{ HealthStats() health.Stats }); ok {
		out.Stats = hd.HealthStats()
	}
	out.ReadP99 = timeP99(lats)
	return out, window, nil
}

// RunChaossweep soaks all five architectures in seeded chaos: the
// antagonist tenant pair replayed under mild program/erase faults and
// accelerated RBER decay (scrub patrol on), with the health governor
// interposed and repeated sudden power losses spread across each life.
// After every crash the device recovers and the integrity oracle checks
// every durably acknowledged page; the life then continues on the
// recovered drive. A correct stack survives every cycle with zero oracle
// violations and zero lost valid pages while degrading gracefully —
// throttling, shedding writes, re-landing GC — instead of failing the run.
func RunChaossweep(o Options) (*ChaossweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	cycles := o.ChaosCycles
	if cycles == 0 {
		cycles = DefaultChaosCycles
	}
	small := o.scaled(chaosSweepDivisor, chaosSweepFloor)
	if !small.Faults.Active() {
		small.Faults = DefaultChaosFaultPlan(small.ChaosSeed + 1)
	}
	if !small.Health.Enabled() {
		small.Health = DefaultChaosHealthPlan()
	}
	recs, footprint, err := chaosTenantRecs(small)
	if err != nil {
		return nil, err
	}
	archs := crashArchConfigs(small, footprint)
	// Decaying flash needs the patrol, as in the scrubsweep's on arms.
	for i := range archs {
		if archs[i].cfg.Faults.IntegrityArmed() && !archs[i].cfg.Scrub.Enabled() {
			archs[i].cfg.Scrub = defaultPatrol(archs[i].cfg.Geometry)
		}
	}
	// Each arm seeds its crash schedule by its index.
	type chaosCell struct {
		arm
		index int
	}
	cells := make([]chaosCell, len(archs))
	for i, a := range archs {
		cells[i] = chaosCell{a, i}
	}
	arms, err := runCells(cells, small.Jobs, func(c chaosCell) (ChaosArm, error) {
		return runChaosArm(small, c.arm, recs, footprint, cycles, c.index)
	})
	if err != nil {
		return nil, err
	}
	return &ChaossweepResult{
		Workload: "victim-mail + antag-trans",
		Requests: small.Requests,
		Seed:     small.ChaosSeed,
		Cycles:   cycles,
		Arms:     arms,
	}, nil
}

// runChaosArm runs one architecture's pilot and chaotic life. The pilot (a
// crash-free life under the same faults, decay and governor) charts the
// post-precondition op window; the crash schedule then slices cycle deltas
// jittered in [base/2, base] with base = window/(2·cycles+1), so the deltas
// sum below half the window and every scheduled crash fires even on lives
// that issue fewer flash ops than the pilot (a crashed write-back buffer
// legitimately drops its unflushed pages, shrinking the buffered arm's op
// count each cycle).
func runChaosArm(o Options, a arm, recs []trace.Record, footprint int64, cycles, armIndex int) (ChaosArm, error) {
	pilot, window, err := runChaosLife(a.cfg, recs, footprint, nil)
	if err != nil {
		return ChaosArm{}, fmt.Errorf("experiments: chaossweep pilot %s: %w", a.name, err)
	}
	if pilot.Violations > 0 {
		return ChaosArm{}, fmt.Errorf("experiments: chaossweep pilot %s: %d oracle violations without a crash",
			a.name, pilot.Violations)
	}
	if window <= int64(2*cycles) {
		return ChaosArm{}, fmt.Errorf("experiments: chaossweep pilot %s: op window %d too small for %d cycles",
			a.name, window, cycles)
	}
	base := window / int64(2*cycles+1)
	state := uint64(o.ChaosSeed)*0x9E3779B97F4A7C15 + uint64(armIndex+1)
	schedule := make([]int64, cycles)
	for j := range schedule {
		schedule[j] = base/2 + int64(splitmix64(&state)%uint64(base/2+1))
		if schedule[j] < 1 {
			schedule[j] = 1
		}
	}
	life, _, err := runChaosLife(a.cfg, recs, footprint, schedule)
	if err != nil {
		return ChaosArm{}, fmt.Errorf("experiments: chaossweep %s: %w", a.name, err)
	}
	life.Arch, life.Cycles = a.name, cycles
	return life, nil
}

// Table renders the soak.
func (r *ChaossweepResult) Table() Table {
	rows := make([][]string, 0, len(r.Arms))
	for _, a := range r.Arms {
		survived := "yes"
		if !a.Survived {
			survived = "no"
		}
		rows = append(rows, []string{
			a.Arch,
			fmt.Sprintf("%d", a.Cycles),
			fmt.Sprintf("%d", a.Crashes),
			fmt.Sprintf("%d", a.Violations),
			fmt.Sprintf("%d", a.LostPages),
			survived,
			a.State.String(),
			fmt.Sprintf("%d", a.RejectedWrites),
			fmt.Sprintf("%d", a.ThrottledWrites),
			fmt.Sprintf("%d", a.Retries),
			fmt.Sprintf("%d", a.Faults.GCRelands),
			fmt.Sprintf("%d", a.Faults.RetiredBlocks),
			fmt.Sprintf("%.2f", float64(a.ReadP99)/float64(ssd.Millisecond)),
		})
	}
	return Table{
		Title:  "Chaossweep: crash/fault/decay soak under the health governor",
		Header: []string{"arm", "cycles", "crashed", "violations", "lost", "survived", "final", "rejected", "throttled", "retries", "relands", "retired", "read p99 ms"},
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("workload %s, %d requests, chaos seed %d, %d crash cycles per arm", r.Workload, r.Requests, r.Seed, r.Cycles),
			"each cycle cuts power mid-op, recovers from OOB + journal, oracle-checks every acknowledged page,",
			"then continues the same life; faults re-land GC mid-relocation, RBER decays with the patrol on,",
			"and the governor throttles/sheds instead of failing — violations and lost pages must stay 0.",
		},
	}
}
