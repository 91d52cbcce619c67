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

	HitRate     float64 // CMT hit fraction over MapRead+MapWrite demand
	Misses      int64
	Writebacks  int64 // dirty frames written back on eviction
	BatchFolded int64 // write-backs absorbed by batched translation-GC moves

	TransPrograms int64 // translation-page flash programs
	TransGCRuns   int64 // translation-block GC cycles
	TransErased   int64 // translation blocks erased
	DataGCRuns    int64 // data-block GC cycles (total − translation)
	DataErased    int64 // data blocks erased

	Revived  int64 // zombie revivals (the DVP hit value under DFTL)
	Programs int64 // total flash programs, translation included
	WA       float64
}

// MapShare returns translation programs per flash program — the fraction
// of the drive's write bandwidth the flash-resident map consumes.
func (a DftlArm) MapShare() float64 {
	if a.Programs == 0 {
		return 0
	}
	return float64(a.TransPrograms) / float64(a.Programs)
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
func runDftlCell(cfg sim.Config, recs []trace.Record, footprint int64) (sim.Result, error) {
	dev, err := sim.NewDevice(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	res, err := sim.Run(dev, recs, sim.RunOptions{
		LogicalPages:      footprint,
		PreconditionPages: footprint,
	})
	if err != nil {
		return res, err
	}
	store := sim.StoreOf(dev)
	if store == nil {
		return res, fmt.Errorf("experiments: device %T exposes no store", dev)
	}
	if store.DftlEnabled() {
		if err := store.CheckDftl(store.LookupOf, footprint); err != nil {
			return res, fmt.Errorf("experiments: flash-resident mapping diverged: %w", err)
		}
	}
	return res, nil
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
	archs := crashArchConfigs(small, footprint)

	type armSpec struct {
		arch   string
		frames int
		cfg    sim.Config
	}
	var arms []armSpec
	for _, a := range archs {
		for _, frames := range dftlSweepFrames(footprint, a.cfg.Geometry.PageSize) {
			cfg := a.cfg
			if frames > 0 {
				cfg.DFTL = dftl.Config{Enable: true, CMTFrames: frames, BatchEvict: true}
			} else {
				cfg.DFTL = dftl.Config{}
			}
			arms = append(arms, armSpec{arch: a.name, frames: frames, cfg: cfg})
		}
	}

	results := make([]sim.Result, len(arms))
	errs := parallelCells(len(arms), small.Jobs, func(i int) error {
		var err error
		if results[i], err = runDftlCell(arms[i].cfg, recs, footprint); err != nil {
			return fmt.Errorf("experiments: dftlsweep %s/frames=%d: %w", arms[i].arch, arms[i].frames, err)
		}
		return nil
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	out := &DftlsweepResult{Workload: workloadName, Requests: small.Requests, Seed: small.Seed}
	for i, arm := range arms {
		m := results[i].Metrics
		out.Arms = append(out.Arms, DftlArm{
			Arch:          arm.arch,
			Frames:        arm.frames,
			HitRate:       m.Dftl.HitRate(),
			Misses:        m.Dftl.Misses,
			Writebacks:    m.Dftl.Writebacks,
			BatchFolded:   m.Dftl.BatchFolded,
			TransPrograms: m.Dftl.TransPrograms,
			TransGCRuns:   m.Dftl.TransGCRuns,
			TransErased:   m.Dftl.TransErased,
			DataGCRuns:    m.GC.Runs - m.Dftl.TransGCRuns,
			DataErased:    m.FlashErases - m.Dftl.TransErased,
			Revived:       m.Revived,
			Programs:      m.FlashPrograms,
			WA:            m.WriteAmplification(),
		})
	}
	return out, nil
}

// Table renders the sweep; frames-0 rows are the in-RAM mapping control.
func (r *DftlsweepResult) Table() Table {
	rows := make([][]string, 0, len(r.Arms))
	for _, a := range r.Arms {
		frames, hit, share := "off", "-", "-"
		if a.Frames > 0 {
			frames = fmt.Sprintf("%d", a.Frames)
			hit = pct(a.HitRate * 100)
			share = pct(a.MapShare() * 100)
		}
		rows = append(rows, []string{
			a.Arch, frames, hit,
			fmt.Sprintf("%d", a.Writebacks),
			fmt.Sprintf("%d", a.TransPrograms),
			fmt.Sprintf("%d/%d", a.TransGCRuns, a.DataGCRuns),
			fmt.Sprintf("%d/%d", a.TransErased, a.DataErased),
			fmt.Sprintf("%d", a.Revived),
			fmt.Sprintf("%.2f", a.WA),
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
