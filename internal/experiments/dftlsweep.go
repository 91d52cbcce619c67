package experiments

import (
	"fmt"

	"zombiessd/internal/dftl"
	"zombiessd/internal/sim"
	"zombiessd/internal/trace"
)

// ------------------------------------------- flash-resident mapping sweep --

// dftlSweepDivisor shrinks the sweep's trace relative to Options.Requests:
// fifteen full replays (five architectures × three CMT arms) per
// invocation.
const dftlSweepDivisor = 2

const dftlSweepFloor = 24_000

// dftlSweepFrames picks the CMT sizes crossed with every architecture,
// scaled to the workload's translation-page count so the shape survives
// any trace scale: 0 disables DFTL entirely (the in-RAM control), the
// small arm covers a quarter of the footprint's translation pages so
// misses and dirty write-backs dominate, and the large arm holds every
// translation page resident once warm.
func dftlSweepFrames(footprint int64, pageSize int) []int {
	epp := int64(dftl.EntriesPerPage(pageSize))
	tvpns := int((footprint + epp - 1) / epp)
	small := tvpns / 4
	if small < 2 {
		small = 2
	}
	large := tvpns
	if large <= small {
		large = small * 4
	}
	return []int{0, small, large}
}

// DftlArm is one (architecture, CMT frames) cell of the sweep: a full
// trace replay with the page map resident in flash translation pages
// behind a bounded CMT, mapping-integrity-checked at the end.
type DftlArm struct {
	Arch   string
	Frames int // CMT frames resident in RAM; 0 = DFTL off (in-RAM map)

	// DeviceMetrics is the replay's activity, preconditioning excluded:
	// Dftl counts CMT misses, dirty write-backs, batch-folded write-backs
	// and the translation stream's programs, GC runs and erases; Revived
	// is the DVP hit value under DFTL.
	sim.DeviceMetrics
}

// DataGCRuns returns the data-block GC cycles: all runs less the
// translation stream's.
func (a DftlArm) DataGCRuns() int64 { return a.GC.Runs - a.Dftl.TransGCRuns }

// DataErased returns the data blocks erased: all erases less the
// translation blocks'.
func (a DftlArm) DataErased() int64 { return a.FlashErases - a.Dftl.TransErased }

// MapShare returns translation programs per flash program — the fraction
// of the drive's write bandwidth the flash-resident map consumes.
func (a DftlArm) MapShare() float64 {
	if a.FlashPrograms == 0 {
		return 0
	}
	return float64(a.Dftl.TransPrograms) / float64(a.FlashPrograms)
}

// DftlsweepResult is the rendered outcome of RunDftlsweep.
type DftlsweepResult struct {
	Workload string
	Requests int64
	Seed     int64
	Arms     []DftlArm
}

// runDftlCell replays the trace on a fresh device and cross-checks the
// flash-resident mapping against the device's own table at the end: every
// logical page must resolve through CMT + translation pages to exactly
// the binding the mapper holds.
func runDftlCell(a arm, recs []trace.Record, footprint int64) (DftlArm, error) {
	out := DftlArm{Arch: a.name, Frames: a.cfg.DFTL.CMTFrames}
	dev, res, err := runDevice(a.cfg, recs, footprint)
	if err != nil {
		return out, err
	}
	out.DeviceMetrics = res.Metrics
	store := sim.StoreOf(dev)
	if store == nil {
		return out, fmt.Errorf("experiments: device %T exposes no store", dev)
	}
	if store.DftlEnabled() {
		if err := store.CheckDftl(store.LookupOf, footprint); err != nil {
			return out, fmt.Errorf("experiments: flash-resident mapping diverged: %w", err)
		}
	}
	return out, nil
}

// RunDftlsweep replays the mail workload on all five architectures with
// the page map held in RAM (control) and in flash translation pages
// behind a small and a large CMT. Every DFTL arm pays real flash traffic
// for mapping misses and dirty-frame write-backs, and the translation
// blocks form a second GC stream whose runs are attributed separately
// from data GC; the sweep reports what that costs each architecture in
// write amplification and what the dead-value pool's revivals are still
// worth once the map itself competes for the flash.
func RunDftlsweep(o Options) (*DftlsweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	small := o.scaled(dftlSweepDivisor, dftlSweepFloor)
	const workloadName = "mail"
	recs, footprint, err := small.traceFor(workloadName)
	if err != nil {
		return nil, err
	}
	var arms []arm
	for _, a := range crashArchConfigs(small, footprint) {
		for _, frames := range dftlSweepFrames(footprint, a.cfg.Geometry.PageSize) {
			c := a
			c.cfg.DFTL = dftl.Config{}
			if frames > 0 {
				c.cfg.DFTL = dftl.Config{Enable: true, CMTFrames: frames, BatchEvict: true}
			}
			arms = append(arms, c)
		}
	}
	out, err := runCells(arms, small.Jobs, func(a arm) (DftlArm, error) {
		r, err := runDftlCell(a, recs, footprint)
		if err != nil {
			return r, fmt.Errorf("experiments: dftlsweep %s/frames=%d: %w", a.name, r.Frames, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return &DftlsweepResult{Workload: workloadName, Requests: small.Requests, Seed: small.Seed, Arms: out}, nil
}

// Table renders the sweep; frames-0 rows are the in-RAM mapping control.
func (r *DftlsweepResult) Table() Table {
	rows := make([][]string, 0, len(r.Arms))
	for _, a := range r.Arms {
		frames, hit, share := "off", "-", "-"
		if a.Frames > 0 {
			frames = fmt.Sprintf("%d", a.Frames)
			hit = pct(a.Dftl.HitRate() * 100)
			share = pct(a.MapShare() * 100)
		}
		rows = append(rows, []string{
			a.Arch, frames, hit,
			fmt.Sprintf("%d", a.Dftl.Writebacks),
			fmt.Sprintf("%d", a.Dftl.TransPrograms),
			fmt.Sprintf("%d/%d", a.Dftl.TransGCRuns, a.DataGCRuns()),
			fmt.Sprintf("%d/%d", a.Dftl.TransErased, a.DataErased()),
			fmt.Sprintf("%d", a.Revived),
			fmt.Sprintf("%.2f", a.WriteAmplification()),
			share,
		})
	}
	return Table{
		Title:  "Dftlsweep: flash-resident mapping (DFTL CMT) across architectures",
		Header: []string{"arm", "CMT", "hit rate", "writebacks", "trans programs", "GC t/d", "erases t/d", "revived", "WA", "map share"},
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("workload %s, %d requests, seed %d; CMT off = page map in RAM (control)", r.Workload, r.Requests, r.Seed),
			"DFTL arms keep the page map in flash translation pages behind a bounded LRU CMT:",
			"misses read a translation page, dirty evictions program one, and translation blocks",
			"are garbage-collected as a second stream (GC t/d and erases t/d split translation vs",
			"data). Batched eviction folds dirty resident frames into translation-GC relocations.",
			"The map share column is translation programs per flash program — the write-bandwidth",
			"tax the flash-resident map costs; revived shows the dead-value pool's win surviving it.",
		},
	}
}
