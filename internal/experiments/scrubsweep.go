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
	Scrub    bool     // background patrol enabled
	Interval ssd.Time // per-block patrol interval (0 when disabled)

	UECC          int64 // uncorrectable reads (host, GC, scrub or verify)
	Correctable   int64 // reads that needed the ECC retry path
	Revived       int64 // zombie revivals that passed the integrity gate
	Declined      int64 // revivals refused on estimated RBER or verify read
	ScrubReads    int64 // patrol sample + pre-refresh reads
	Refreshed     int64 // pages refresh-relocated by the patrol
	RefreshWrites int64 // refresh programs charged to the flash
	DataLoss      int   // acknowledged pages unreadable at end of trace
	ReadP99       ssd.Time
	Makespan      ssd.Time
}

// ScrubsweepResult is the rendered outcome of RunScrubsweep.
type ScrubsweepResult struct {
	Workload string
	Requests int64
	Seed     int64
	Arms     []ScrubArm
}

// integrityCell is one device's life under the error model: precondition,
// replay, oracle-verify.
type integrityCell struct {
	m        sim.DeviceMetrics
	dataLoss int
	readP99  ssd.Time
	makespan ssd.Time
}

// runIntegrityCell replays the trace on a fresh device with the integrity
// model armed, tracking host read latency and checking every durably
// acknowledged page at the end. Unlike the crash sweep nothing interrupts
// the run — any error is fatal.
func runIntegrityCell(cfg sim.Config, recs []trace.Record, footprint int64) (integrityCell, error) {
	var out integrityCell
	dev, c, err := checkedDevice(cfg, footprint)
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
	out.m = dev.Metrics().Sub(base)
	out.dataLoss = len(c.Verify())
	out.readP99 = timeP99(lats)
	out.makespan = c.End
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
	archs := crashArchConfigs(small, footprint)

	type armSpec struct {
		arch  string
		cfg   sim.Config
		scrub bool
	}
	var arms []armSpec
	for _, a := range archs {
		off := a.cfg
		off.Scrub = scrub.Config{}
		on := a.cfg
		if !on.Scrub.Enabled() {
			on.Scrub = defaultPatrol(on.Geometry)
		}
		arms = append(arms,
			armSpec{arch: a.name, cfg: off},
			armSpec{arch: a.name, cfg: on, scrub: true})
	}

	results := make([]integrityCell, len(arms))
	errs := parallelCells(len(arms), small.Jobs, func(i int) error {
		var err error
		if results[i], err = runIntegrityCell(arms[i].cfg, recs, footprint); err != nil {
			return fmt.Errorf("experiments: scrubsweep %s (scrub=%v): %w", arms[i].arch, arms[i].scrub, err)
		}
		return nil
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	out := &ScrubsweepResult{Workload: workloadName, Requests: small.Requests, Seed: small.Seed}
	for i, arm := range arms {
		r := results[i]
		out.Arms = append(out.Arms, ScrubArm{
			Arch:          arm.arch,
			Scrub:         arm.scrub,
			Interval:      arm.cfg.Scrub.Interval,
			UECC:          r.m.Faults.UncorrectableReads,
			Correctable:   r.m.Faults.CorrectableReads,
			Revived:       r.m.Revived,
			Declined:      r.m.Faults.RevivalsDeclined,
			ScrubReads:    r.m.Scrub.ScrubReads,
			Refreshed:     r.m.Scrub.Refreshed,
			RefreshWrites: r.m.Faults.RefreshWrites,
			DataLoss:      r.dataLoss,
			ReadP99:       r.readP99,
			Makespan:      r.makespan,
		})
	}
	return out, nil
}

// Table renders the sweep.
func (r *ScrubsweepResult) Table() Table {
	rows := make([][]string, 0, len(r.Arms))
	for _, a := range r.Arms {
		mode := "off"
		if a.Scrub {
			mode = fmt.Sprintf("%dµs", a.Interval)
		}
		rows = append(rows, []string{
			a.Arch, mode,
			fmt.Sprintf("%d", a.UECC),
			fmt.Sprintf("%d", a.Correctable),
			fmt.Sprintf("%d", a.Revived),
			fmt.Sprintf("%d", a.Declined),
			fmt.Sprintf("%d", a.ScrubReads),
			fmt.Sprintf("%d", a.Refreshed),
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
