package experiments

import (
	"fmt"
	"sort"

	"zombiessd/internal/fault"
	"zombiessd/internal/scrub"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// ---------------------------------------------------- data-integrity sweep --

// DefaultIntegrityPlan is the accelerated-decay error model the scrubsweep
// substitutes when Options.Faults.Integrity is disarmed. Real retention
// plays out over weeks; the simulated traces span seconds, so the rates are
// scaled the same way the traces are — what matters is that pages decay
// well within a run, slowly enough that a patrol at the default sweep
// period refreshes them first, and fast enough that without the patrol the
// oldest acknowledged pages decay past ECC.
func DefaultIntegrityPlan() fault.IntegrityConfig {
	return fault.IntegrityConfig{
		BaseRBER:         1e-4,
		RetentionRate:    6.0,  // ×(1+6·ageSeconds): past ECC in ~6.5 s untouched
		ReadDisturbRate:  2e-4, // ×(1+0.0002·blockReads)
		WearRate:         0.02, // ×(1+0.02·blockErases)
		RevivalRBERLimit: 2e-3, // decline zombies past mid-band RBER
		// CorrectableRBER / UncorrectableRBER take the fault defaults.
	}
}

// DefaultScrubSweepPeriod is the target time for one full patrol of every
// block when Options.Scrub is disabled: the per-block interval is the
// period divided by the drive's block count, so the guarantee ("every page
// sampled at least this often") holds at any geometry.
const DefaultScrubSweepPeriod = 1500 * ssd.Millisecond

// DefaultScrubRefreshRBER is the sweep's refresh threshold: mid-band
// between correctable (1e-3) and uncorrectable (4e-3), so the patrol only
// rewrites pages drifting toward danger instead of churning every page that
// merely needs an ECC retry. Lower thresholds refresh earlier but steal
// more idle bandwidth from the host.
const DefaultScrubRefreshRBER = 2e-3

// scrubSweepDivisor shrinks the sweep's trace relative to Options.Requests:
// ten full replays (five architectures × scrub on/off) per invocation. The
// floor is high because the makespan — and with it the retention decay that
// gives the sweep something to measure — scales with the request count.
const scrubSweepDivisor = 2

const scrubSweepFloor = 24_000

// ScrubArm is one (architecture, scrub on/off) cell of the sweep: a full
// trace replay against the accelerated error model, oracle-verified at the
// end — every durably acknowledged page must still read back.
type ScrubArm struct {
	Arch     string
	Patrol   bool     // background patrol enabled
	Interval ssd.Time // per-block patrol interval (0 when disabled)

	// DeviceMetrics is the replay's activity, preconditioning excluded:
	// Faults counts uncorrectable and correctable reads, declined
	// revivals and refresh programs; Scrub the patrol's reads and
	// refresh relocations.
	sim.DeviceMetrics
	DataLoss int // acknowledged pages unreadable at end of trace
	ReadP99  ssd.Time
	Makespan ssd.Time
}

// ScrubsweepResult is the rendered outcome of RunScrubsweep.
type ScrubsweepResult struct {
	Workload string
	Requests int64
	Seed     int64
	Arms     []ScrubArm
}

// runIntegrityCell replays the trace on a fresh device with the integrity
// model armed, tracking host read latency and checking every durably
// acknowledged page at the end. Unlike the crash sweep nothing interrupts
// the run — any error is fatal.
func runIntegrityCell(a arm, recs []trace.Record, footprint int64) (ScrubArm, error) {
	out := ScrubArm{Arch: a.name, Patrol: a.cfg.Scrub.Enabled(), Interval: a.cfg.Scrub.Interval}
	dev, c, err := checkedDevice(a.cfg, footprint)
	if err != nil {
		return out, err
	}
	base := dev.Metrics()

	lats := make([]ssd.Time, 0, len(recs)/2)
	for i, rec := range recs {
		done, err := c.Do(rec)
		if err != nil {
			return out, fmt.Errorf("experiments: scrub record %d: %w", i, err)
		}
		if rec.Op == trace.OpRead {
			lats = append(lats, done-c.Shift-ssd.Time(rec.Time))
		}
	}
	out.DeviceMetrics = dev.Metrics().Sub(base)
	out.DataLoss = len(c.Verify())
	out.ReadP99 = timeP99(lats)
	out.Makespan = c.End
	return out, nil
}

// timeP99 returns the 99th-percentile of xs (0 when empty); xs is sorted in
// place.
func timeP99(xs []ssd.Time) ssd.Time {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	idx := len(xs) * 99 / 100
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

// scrubIntervalFor converts the full-sweep period into the per-block patrol
// interval for one drive.
func scrubIntervalFor(period ssd.Time, geo ssd.Geometry) ssd.Time {
	iv := period / ssd.Time(geo.TotalBlocks())
	if iv < 1 {
		iv = 1
	}
	return iv
}

// defaultPatrol is the background patrol the sweeps arm when Options.Scrub
// is disabled: one full pass every DefaultScrubSweepPeriod, refreshing
// pages past DefaultScrubRefreshRBER.
func defaultPatrol(geo ssd.Geometry) scrub.Config {
	return scrub.Config{
		Interval:    scrubIntervalFor(DefaultScrubSweepPeriod, geo),
		RefreshRBER: DefaultScrubRefreshRBER,
	}
}

// RunScrubsweep replays the mail workload against the accelerated
// retention / read-disturb / wear error model on all five architectures,
// with the background scrubber off (control) and on. The off arms show the
// cost of doing nothing — uncorrectable reads and host-visible data loss
// accumulating as acknowledged pages decay — and, on the revival systems,
// the integrity gate declining zombie pages whose estimated RBER has
// drifted past the revival limit. The on arms must drive data loss to
// zero while charging only idle-window patrol reads and refresh programs.
func RunScrubsweep(o Options) (*ScrubsweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	small := o.scaled(scrubSweepDivisor, scrubSweepFloor)
	if !small.Faults.IntegrityArmed() {
		small.Faults.Integrity = DefaultIntegrityPlan()
	}
	const workloadName = "mail"
	recs, footprint, err := small.traceFor(workloadName)
	if err != nil {
		return nil, err
	}
	var arms []arm
	for _, a := range crashArchConfigs(small, footprint) {
		off := a
		off.cfg.Scrub = scrub.Config{}
		on := a
		if !on.cfg.Scrub.Enabled() {
			on.cfg.Scrub = defaultPatrol(on.cfg.Geometry)
		}
		arms = append(arms, off, on)
	}
	out, err := runCells(arms, small.Jobs, func(a arm) (ScrubArm, error) {
		r, err := runIntegrityCell(a, recs, footprint)
		if err != nil {
			return r, fmt.Errorf("experiments: scrubsweep %s (scrub=%v): %w", a.name, r.Patrol, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return &ScrubsweepResult{Workload: workloadName, Requests: small.Requests, Seed: small.Seed, Arms: out}, nil
}

// Table renders the sweep.
func (r *ScrubsweepResult) Table() Table {
	rows := make([][]string, 0, len(r.Arms))
	for _, a := range r.Arms {
		mode := "off"
		if a.Patrol {
			mode = fmt.Sprintf("%dµs", a.Interval)
		}
		rows = append(rows, []string{
			a.Arch, mode,
			fmt.Sprintf("%d", a.Faults.UncorrectableReads),
			fmt.Sprintf("%d", a.Faults.CorrectableReads),
			fmt.Sprintf("%d", a.Revived),
			fmt.Sprintf("%d", a.Faults.RevivalsDeclined),
			fmt.Sprintf("%d", a.Scrub.ScrubReads),
			fmt.Sprintf("%d", a.Scrub.Refreshed),
			fmt.Sprintf("%d", a.DataLoss),
			usec(float64(a.ReadP99)),
		})
	}
	return Table{
		Title:  "Scrubsweep: data integrity under accelerated retention/read-disturb decay",
		Header: []string{"arm", "scrub", "uecc", "correctable", "revived", "declined", "scrub reads", "refreshed", "data loss", "read p99"},
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("workload %s, %d requests, seed %d; accelerated error model (retention dominates)", r.Workload, r.Requests, r.Seed),
			"scrub off: acknowledged pages decay past ECC — uncorrectable reads and end-of-trace data loss;",
			"revival systems decline zombies whose estimated RBER drifted past the revival limit.",
			"scrub on: an idle-window patrol samples each block and refresh-relocates pages past the",
			"correctable threshold, driving host-visible data loss to zero for the patrol's write cost.",
		},
	}
}
