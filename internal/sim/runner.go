package sim

import (
	"fmt"

	"zombiessd/internal/ftl"
	"zombiessd/internal/health"
	"zombiessd/internal/ssd"
	"zombiessd/internal/stats"
	"zombiessd/internal/trace"
)

// RunOptions configures a trace run.
type RunOptions struct {
	// PreconditionPages > 0 fills logical pages [0, PreconditionPages)
	// with unique content before the timed run, so the trace executes on a
	// drive whose footprint is already resident — updates invalidate real
	// pages and GC is active from the start, as on a steady-state device.
	// Preconditioning is excluded from all reported metrics and latencies.
	PreconditionPages int64

	// LogicalPages bounds the trace's LBAs; requests beyond it are
	// rejected. Required (the paper's traces address a fixed space).
	LogicalPages int64
}

// Result is the outcome of one trace run on one device.
type Result struct {
	Metrics  DeviceMetrics
	All      stats.Summary // latency over every request
	Reads    stats.Summary
	Writes   stats.Summary
	Makespan ssd.Time // completion time of the last request minus trace start

	// MeanChipUtil and MaxChipUtil are the per-chip busy fractions over the
	// whole run (preconditioning included); a mean near 1 flags a saturated
	// drive whose latencies are queueing artifacts.
	MeanChipUtil, MaxChipUtil float64

	// Health is the device health governor's report (zero when the
	// governor is disabled): final ladder state, transitions, throttled
	// and rejected operations, host-layer retries.
	Health health.Stats
}

// preconditionValueBase offsets preconditioning content IDs far above any
// workload-generated value ID, so the fill never aliases trace values.
const preconditionValueBase = uint64(1) << 48

// PreconditionHash returns the content the preconditioning fill writes at
// lpn. RunTenants and Checked.Precondition both fill with it, and the
// lifetime harness reuses it, so every fill writes the same content.
func PreconditionHash(lpn int64) trace.Hash {
	return trace.HashOfValue(preconditionValueBase + uint64(lpn))
}

// Run replays recs against dev in arrival order and returns metrics and
// latency summaries. Request arrival times come from the trace; queuing
// shows up when a request's completion lags its arrival by more than the
// raw operation latency.
//
// Run is the degenerate case of the multi-queue host engine (engine.go):
// one tenant stream, the FIFO arbiter, unlimited queue depth. With a
// monotone trace the engine dispatches every request at its own arrival
// instant, so results stay bit-identical to the pre-engine runner —
// pinned by TestNoTenantBitIdentity.
func Run(dev Device, recs []trace.Record, opts RunOptions) (Result, error) {
	if opts.LogicalPages <= 0 {
		return Result{}, fmt.Errorf("sim: RunOptions.LogicalPages must be positive")
	}
	if opts.PreconditionPages > opts.LogicalPages {
		return Result{}, fmt.Errorf("sim: precondition pages %d exceed logical pages %d",
			opts.PreconditionPages, opts.LogicalPages)
	}
	mr, err := RunTenants(dev, []TenantTrace{{
		Cfg:       TenantConfig{Name: "host", Weight: 1},
		Recs:      recs,
		Footprint: opts.LogicalPages,
	}}, EngineOptions{
		Arbiter:           ArbFIFO,
		PreconditionPages: opts.PreconditionPages,
		LogicalPages:      opts.LogicalPages,
	})
	if err != nil {
		return Result{}, err
	}
	return mr.Result, nil
}

func lpnOf(v int64) ftl.LPN { return ftl.LPN(v) }
