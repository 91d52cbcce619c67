package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"zombiessd/internal/sim"
	"zombiessd/internal/trace"
)

// runCells runs run on every cell on at most jobs goroutines (jobs ≤ 0
// means GOMAXPROCS) and returns the results in cell order. Cells start in
// index order, and once any cell fails the cells not yet started are
// skipped: every cell below the lowest failing index has already started,
// so the error returned — the lowest failing index's — is the same on
// every schedule. run must only write state owned by its own cell.
func runCells[C, R any](cells []C, jobs int, run func(C) (R, error)) ([]R, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	jobs = min(jobs, len(cells))
	out := make([]R, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				if out[i], errs[i] = run(cells[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// arm is one swept device: the architecture's row name and the config
// its cells run on.
type arm struct {
	name string
	cfg  sim.Config
}

// runDevice replays recs on a fresh device built from cfg, its footprint
// preconditioned first.
func runDevice(cfg sim.Config, recs []trace.Record, footprint int64) (sim.Device, sim.Result, error) {
	dev, err := sim.NewDevice(cfg)
	if err != nil {
		return nil, sim.Result{}, err
	}
	res, err := sim.Run(dev, recs, sim.RunOptions{LogicalPages: footprint, PreconditionPages: footprint})
	return dev, res, err
}

// runTenantCell replays one tenant set through the multi-queue engine on a
// fresh device that configFor builds over the set's joint footprint. qd
// bounds both each tenant's queue and the shared device slots.
func runTenantCell(set []sim.TenantConfig, requests, seed int64, configFor func(footprint int64) sim.Config,
	arbiter sim.ArbiterKind, qd int) ([]sim.TenantResult, error) {
	traces, err := sim.GenerateTenants(set, requests, seed)
	if err != nil {
		return nil, err
	}
	fp := sim.TotalFootprint(traces)
	dev, err := sim.NewDevice(configFor(fp))
	if err != nil {
		return nil, err
	}
	mr, err := sim.RunTenants(dev, traces, sim.EngineOptions{
		Arbiter:           arbiter,
		QueueDepth:        qd,
		DeviceSlots:       qd,
		PreconditionPages: fp,
		LogicalPages:      fp,
	})
	if err != nil {
		return nil, err
	}
	return mr.Tenants, nil
}
