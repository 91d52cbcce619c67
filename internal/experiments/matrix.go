package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"zombiessd/internal/sim"
	"zombiessd/internal/telemetry"
	"zombiessd/internal/trace"
	"zombiessd/internal/workload"
)

// CellError ties one failed matrix arm to its cause.
type CellError struct {
	Workload string // empty when the failure is system-wide
	Sys      System // empty when the failure is workload-wide
	Err      error
}

// arm names the failing (workload, system) pair compactly.
func (c CellError) arm() string {
	switch {
	case c.Workload == "":
		return string(c.Sys)
	case c.Sys == "":
		return c.Workload
	}
	return c.Workload + "/" + string(c.Sys)
}

// MatrixError aggregates every failed arm of a matrix run, so one bad arm
// in a long sweep does not hide the state of the others. Cells are sorted
// by (workload, system).
type MatrixError struct {
	Cells []CellError
}

// Error renders each arm with its cause.
func (e *MatrixError) Error() string {
	if len(e.Cells) == 1 {
		c := e.Cells[0]
		return fmt.Sprintf("experiments: %s: %v", c.arm(), c.Err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "experiments: %d arms failed:", len(e.Cells))
	for _, c := range e.Cells {
		fmt.Fprintf(&sb, "\n  %s: %v", c.arm(), c.Err)
	}
	return sb.String()
}

// Unwrap exposes the per-arm causes to errors.Is/As.
func (e *MatrixError) Unwrap() []error {
	out := make([]error, len(e.Cells))
	for i, c := range e.Cells {
		out[i] = c.Err
	}
	return out
}

// matrixError sorts cells deterministically and wraps them, or returns nil
// when nothing failed.
func matrixError(cells []CellError) error {
	if len(cells) == 0 {
		return nil
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Workload != cells[j].Workload {
			return cells[i].Workload < cells[j].Workload
		}
		return cells[i].Sys < cells[j].Sys
	})
	return &MatrixError{Cells: cells}
}

// cellsSimulated counts the matrix cells that started simulating, so tests
// can assert that workers stop simulating once an error is recorded.
var cellsSimulated atomic.Int64

// System names the full-simulation configurations of Section V-A. Pool
// sizes are in paper entries (scaled by Options.ScaleEntries).
type System string

// The systems of the evaluation matrix.
const (
	SysBaseline System = "baseline"
	SysDVP100K  System = "dvp-100k"
	SysDVP200K  System = "dvp-200k"
	SysDVP300K  System = "dvp-300k"
	SysIdeal    System = "ideal"
	SysLX       System = "lx-ssd"
	SysDedup    System = "dedup"
	SysDVPDedup System = "dvp+dedup"
)

// AllSystems lists every matrix configuration.
func AllSystems() []System {
	return []System{SysBaseline, SysDVP100K, SysDVP200K, SysDVP300K,
		SysIdeal, SysLX, SysDedup, SysDVPDedup}
}

// Matrix holds one full-simulation run per (workload, system) pair,
// shared by Figs 9–12 and 14–15 so a combined run simulates each pair once.
type Matrix struct {
	Workloads []string
	Results   map[string]map[System]sim.Result

	// Telemetry holds each cell's observability instance when
	// Options.Telemetry was enabled (nil maps otherwise). Instances are
	// per-cell — parallel arms never share one — so exporting the series,
	// attribution or timeline of a single (workload, system) run is a
	// plain lookup.
	Telemetry map[string]map[System]*telemetry.Telemetry
}

// Result returns the run for (workload, system).
func (m *Matrix) Result(workload string, sys System) (sim.Result, bool) {
	r, ok := m.Results[workload][sys]
	return r, ok
}

// TelemetryFor returns the observability instance of one cell, or nil when
// telemetry was off for the run.
func (m *Matrix) TelemetryFor(workload string, sys System) *telemetry.Telemetry {
	return m.Telemetry[workload][sys]
}

// systemSpecs gives each matrix system's architecture, pool and pool size
// in paper entries.
var systemSpecs = map[System]struct {
	kind    sim.Kind
	pool    sim.PoolKind
	entries int
}{
	SysBaseline: {sim.KindBaseline, sim.PoolMQ, 200_000},
	SysDVP100K:  {sim.KindDVP, sim.PoolMQ, 100_000},
	SysDVP200K:  {sim.KindDVP, sim.PoolMQ, 200_000},
	SysDVP300K:  {sim.KindDVP, sim.PoolMQ, 300_000},
	SysIdeal:    {sim.KindDVP, sim.PoolInfinite, 200_000},
	SysLX:       {sim.KindLX, sim.PoolMQ, 200_000},
	SysDedup:    {sim.KindDedup, sim.PoolMQ, 200_000},
	SysDVPDedup: {sim.KindDVPDedup, sim.PoolMQ, 200_000},
}

// traceFor generates the workload's trace once per matrix build.
func (o Options) traceFor(name string) ([]trace.Record, int64, error) {
	p, ok := workload.ProfileByName(name)
	if !ok {
		return nil, 0, fmt.Errorf("experiments: unknown workload %q", name)
	}
	recs, err := workload.Generate(p, o.Requests, o.Seed)
	if err != nil {
		return nil, 0, err
	}
	var footprint int64
	for _, r := range recs {
		if int64(r.LBA) >= footprint {
			footprint = int64(r.LBA) + 1
		}
	}
	return recs, footprint, nil
}

// RunMatrix simulates the requested systems over the requested workloads
// (nil means all six / all systems). The (workload, system) cells are
// independent simulations, so they run in parallel across the machine's
// cores; results are deterministic regardless of scheduling.
func RunMatrix(o Options, workloads []string, systems []System) (*Matrix, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if workloads == nil {
		workloads = workload.Names()
	}
	if systems == nil {
		systems = AllSystems()
	}
	m := &Matrix{
		Workloads: workloads,
		Results:   make(map[string]map[System]sim.Result, len(workloads)),
		Telemetry: make(map[string]map[System]*telemetry.Telemetry, len(workloads)),
	}

	// Pre-flight: resolve every arm's names before simulating anything, so
	// one typo surfaces every broken arm at once instead of costing a full
	// run per discovery. Generated traces are shared read-only by cells.
	var failed []CellError
	for _, sys := range systems {
		if _, ok := systemSpecs[sys]; !ok {
			failed = append(failed, CellError{Sys: sys,
				Err: fmt.Errorf("unknown system %q", sys)})
		}
	}
	type traceData struct {
		recs      []trace.Record
		footprint int64
	}
	traces := make(map[string]traceData, len(workloads))
	for _, name := range workloads {
		recs, footprint, err := o.traceFor(name)
		if err != nil {
			failed = append(failed, CellError{Workload: name, Err: err})
			continue
		}
		traces[name] = traceData{recs, footprint}
		m.Results[name] = make(map[System]sim.Result, len(systems))
		m.Telemetry[name] = make(map[System]*telemetry.Telemetry, len(systems))
	}
	if err := matrixError(failed); err != nil {
		return nil, err
	}

	type cell struct {
		workload string
		sys      System
	}
	cells := make([]cell, 0, len(workloads)*len(systems))
	for _, name := range workloads {
		for _, sys := range systems {
			cells = append(cells, cell{name, sys})
		}
	}
	// A failing cell reports as a one-arm MatrixError: the lowest failing
	// cell's, whatever the schedule.
	type cellOut struct {
		res sim.Result
		tel *telemetry.Telemetry
	}
	outs, err := runCells(cells, o.Jobs, func(c cell) (cellOut, error) {
		td, spec := traces[c.workload], systemSpecs[c.sys]
		cfg := o.deviceConfig(spec.kind, td.footprint, spec.pool, spec.entries)
		cfg.Telemetry = telemetry.New(o.Telemetry)
		cellsSimulated.Add(1)
		_, res, err := runDevice(cfg, td.recs, td.footprint)
		if err != nil {
			return cellOut{}, matrixError([]CellError{{Workload: c.workload, Sys: c.sys, Err: err}})
		}
		return cellOut{res, cfg.Telemetry}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		m.Results[c.workload][c.sys] = outs[i].res
		if outs[i].tel != nil {
			m.Telemetry[c.workload][c.sys] = outs[i].tel
		}
	}
	return m, nil
}
