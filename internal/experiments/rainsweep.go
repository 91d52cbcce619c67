package experiments

import (
	"fmt"

	"zombiessd/internal/rain"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// ------------------------------------------------ die-failure / RAIN sweep --

// rainSweepDivisor shrinks the sweep's trace relative to Options.Requests:
// ten full replays (five architectures × parity off/on) per invocation,
// each carrying the accelerated decay model, a background patrol and a
// whole-die kill.
const rainSweepDivisor = 2

const rainSweepFloor = 24_000

// rainDieFailDivisor places the die kill one len(recs)/divisor store ops
// past the preconditioning fill. The trigger counts store-level ops, which
// short-circuiting (dedup hits, buffer absorption) thins out relative to
// trace records, so the placement is conservative: early enough that every
// architecture reliably reaches it and plenty of post-failure traffic
// lands on the survivors, while the freshly preconditioned die is still
// full of live data worth losing.
const rainDieFailDivisor = 10

// RainArm is one (architecture, parity on/off) cell of the sweep: a full
// trace replay under the decay model with one whole die killed mid-trace,
// oracle-verified at the end after the rebuild daemon drains.
type RainArm struct {
	Arch   string
	Parity bool // RAIN striping enabled
	Die    int  // flat index of the killed die

	// DeviceMetrics is the replay's activity, preconditioning excluded:
	// Rain counts reconstructed pages, the survivor reads they charged,
	// parity programs and pages the rebuild daemon re-landed.
	sim.DeviceMetrics
	LostPages   int64 // store pages still destroyed and unreconstructed
	DataLoss    int   // acknowledged pages failing the end-of-trace oracle
	RebuildTime ssd.Time
}

// ParityTax returns parity programs per non-parity flash program — the
// write-amplification premium the redundancy costs this architecture.
func (a RainArm) ParityTax() float64 {
	if data := a.FlashPrograms - a.Rain.ParityPrograms; data > 0 {
		return float64(a.Rain.ParityPrograms) / float64(data)
	}
	return 0
}

// RainsweepResult is the rendered outcome of RunRainsweep.
type RainsweepResult struct {
	Workload string
	Requests int64
	Seed     int64
	Arms     []RainArm
}

// rainDrainCap bounds the post-replay rebuild drain in RebuildTick calls
// per device page; the daemon needs pending/4 working ticks plus one clean
// full scan, far below this.
const rainDrainCap = 4

// runRainCell replays the trace on a fresh device armed to kill one die
// mid-trace. The replay itself must survive — die failure is absorbed by
// reconstruction (parity on) or surfaces as uncorrectable reads the sim
// layer tolerates (parity off) — then the rebuild daemon is drained and
// every durably acknowledged page is checked against the oracle.
func runRainCell(a arm, recs []trace.Record, footprint int64) (RainArm, error) {
	cfg := a.cfg
	out := RainArm{Arch: a.name, Parity: cfg.RAIN.Enabled(), Die: cfg.Faults.DieFailDie}
	dev, c, err := checkedDevice(cfg, footprint)
	if err != nil {
		return out, err
	}
	base := dev.Metrics()

	for i, rec := range recs {
		if _, err := c.Do(rec); err != nil {
			return out, fmt.Errorf("experiments: rain record %d: %w", i, err)
		}
	}

	store := sim.StoreOf(dev)
	if store == nil {
		return out, fmt.Errorf("experiments: device %T exposes no store", dev)
	}
	if !store.DieFailed() {
		return out, fmt.Errorf("experiments: die kill at op %d never fired (replay too short)", cfg.Faults.DieFailAtOp)
	}
	if store.RainEnabled() {
		// Drain the rebuild daemon: the replay gave it idle windows, the
		// tail runs here. Every tick re-lands a few pages; done requires a
		// full clean cursor pass.
		limit := cfg.Geometry.TotalPages() * rainDrainCap
		for i := int64(0); !store.RebuildDone(); i++ {
			if i > limit {
				return out, fmt.Errorf("experiments: rebuild drain exceeded %d ticks (%d pages pending)",
					limit, store.RebuildPending())
			}
			if err := store.RebuildTick(c.End); err != nil {
				return out, fmt.Errorf("experiments: rebuild drain: %w", err)
			}
		}
		if err := store.FlushParity(c.End); err != nil {
			return out, fmt.Errorf("experiments: final parity flush: %w", err)
		}
		if err := store.CheckRain(); err != nil {
			return out, fmt.Errorf("experiments: post-drain stripe invariant: %w", err)
		}
		out.RebuildTime = store.RebuildEndTime() - store.DieFailTime()
	}
	out.DeviceMetrics = dev.Metrics().Sub(base)
	out.LostPages = store.LostPages()
	out.DataLoss = len(c.Verify())
	return out, nil
}

// RunRainsweep replays the mail workload on all five architectures with
// intra-SSD RAIN parity off (control) and on, killing one whole die
// mid-trace under the accelerated decay model with the background patrol
// and the health governor active. Parity-off arms lose the dead die's live
// pages outright — the lost-page counter and the end-of-trace oracle agree
// on the damage. Parity-on arms reconstruct every dead page from the
// surviving stripe members, the rebuild daemon re-lands them on healthy
// flash during idle windows, and the oracle must come back clean; the
// price is the parity write tax each architecture pays.
func RunRainsweep(o Options) (*RainsweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	small := o.scaled(rainSweepDivisor, rainSweepFloor)
	if !small.Faults.IntegrityArmed() {
		small.Faults.Integrity = DefaultIntegrityPlan()
	}
	if !small.Health.Enabled() {
		small.Health = DefaultChaosHealthPlan()
		// A whole-die kill legitimately strands pages until the rebuild
		// daemon reaches them; the lost-page death threshold would declare
		// the parity-off control dead mid-experiment.
		small.Health.DeadLostPages = 0
	}
	const workloadName = "mail"
	recs, footprint, err := small.traceFor(workloadName)
	if err != nil {
		return nil, err
	}
	var arms []arm
	rng := uint64(small.Seed)*0x9E3779B97F4A7C15 + 1
	for _, a := range crashArchConfigs(small, footprint) {
		cfg := &a.cfg
		if !cfg.Scrub.Enabled() {
			cfg.Scrub = defaultPatrol(cfg.Geometry)
		}
		dies := cfg.Geometry.TotalChips() * cfg.Geometry.DiesPerChip
		cfg.Faults.DieFailAtOp = footprint + int64(len(recs)/rainDieFailDivisor)
		cfg.Faults.DieFailDie = int(splitmix64(&rng) % uint64(dies))

		off := a
		off.cfg.RAIN = rain.Config{}
		on := a
		if !on.cfg.RAIN.Enabled() {
			on.cfg.RAIN = rain.Config{Enable: true}
		}
		arms = append(arms, off, on)
	}
	out, err := runCells(arms, small.Jobs, func(a arm) (RainArm, error) {
		r, err := runRainCell(a, recs, footprint)
		if err != nil {
			return r, fmt.Errorf("experiments: rainsweep %s (parity=%v): %w", a.name, r.Parity, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return &RainsweepResult{Workload: workloadName, Requests: small.Requests, Seed: small.Seed, Arms: out}, nil
}

// Table renders the sweep; the parity-on rows carry each architecture's
// parity write-amplification tax.
func (r *RainsweepResult) Table() Table {
	rows := make([][]string, 0, len(r.Arms))
	for _, a := range r.Arms {
		mode, tax := "off", "-"
		if a.Parity {
			mode = "on"
			tax = pct(a.ParityTax() * 100)
		}
		rows = append(rows, []string{
			a.Arch, mode,
			fmt.Sprintf("%d", a.Die),
			fmt.Sprintf("%d", a.LostPages),
			fmt.Sprintf("%d", a.DataLoss),
			fmt.Sprintf("%d", a.Rain.ReconstructedPages),
			fmt.Sprintf("%d", a.Rain.RebuildPages),
			fmt.Sprintf("%.1f", float64(a.RebuildTime)/float64(ssd.Millisecond)),
			fmt.Sprintf("%d", a.Rain.ParityPrograms),
			fmt.Sprintf("%.2f", a.WriteAmplification()),
			tax,
		})
	}
	return Table{
		Title:  "Rainsweep: whole-die failure under intra-SSD RAIN parity",
		Header: []string{"arm", "parity", "die", "lost", "data loss", "reconstructed", "rebuilt", "rebuild ms", "parity writes", "WA", "parity tax"},
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("workload %s, %d requests, seed %d; accelerated decay + scrub patrol + health governor", r.Workload, r.Requests, r.Seed),
			"each arm kills one whole die mid-trace (same die and op for the off/on pair);",
			"parity off: the die's live pages are gone — lost pages and oracle data loss count the damage.",
			"parity on: every dead page reconstructs from surviving stripe members + XOR parity, the",
			"rebuild daemon re-lands them on healthy flash, and the end-of-trace oracle must be clean;",
			"the parity tax column is parity programs per non-parity flash program — the redundancy's",
			"write-amplification premium, cheapest on the architectures that program the least.",
		},
	}
}
