package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"time"

	"zombiessd/internal/ftl"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// Outcome classes of one device call, decided at the device boundary from
// counter deltas. A call takes the first class that applies, in this order.
const (
	classGC       = iota // ran at least one data-GC cycle
	classMapMiss         // missed the cached mapping table
	classRevived         // write short-circuited by a zombie revival
	classDedupHit        // write short-circuited by a live duplicate
	classProgram         // any other write
	classRead            // any other read
	classPrecond         // the engine's preconditioning fill
	numClasses
)

var classNames = [numClasses]string{"gc", "map_miss", "revived", "dedup_hit", "program", "read", "precond"}

// span is one Write or Read call: its host start and end in nanoseconds
// since the traced run began. The request id is the span's index within its
// cell; the parent is the cell's Run span.
type span struct {
	start, end int64
	class      uint8
	write      bool
}

// boundary is the set of counters read after every call.
type boundary struct {
	gcRuns, transGCRuns, mapMisses, revived, dedupHits int64
}

// tracedDevice is a sim.Device that forwards every call to the device
// under test and records a span per call. It forwards Store() and Bus(), so
// the engine's telemetry lookup, tenant accounting and utilisation report
// see the inner device's store and bus exactly as unwrapped.
type tracedDevice struct {
	inner   sim.Device
	store   *ftl.Store
	bus     *ssd.Bus
	t0      time.Time
	precond int64 // leading Write calls that are the preconditioning fill
	calls   int64
	last    boundary
	spans   []span

	// written holds the content of the last successful write per logical
	// page (precondition fill included); has marks pages ever written.
	written []trace.Hash
	has     []bool
}

func newTracedDevice(inner sim.Device, logicalPages, precond int64, t0 time.Time) (*tracedDevice, error) {
	store := sim.StoreOf(inner)
	br, ok := inner.(interface{ Bus() *ssd.Bus })
	if store == nil || !ok {
		return nil, fmt.Errorf("device %T exposes no store or bus", inner)
	}
	d := &tracedDevice{
		inner:   inner,
		store:   store,
		bus:     br.Bus(),
		t0:      t0,
		precond: precond,
		written: make([]trace.Hash, logicalPages),
		has:     make([]bool, logicalPages),
	}
	d.last = d.read()
	return d, nil
}

// Store forwards to the inner device.
func (d *tracedDevice) Store() *ftl.Store { return d.store }

// Bus forwards to the inner device.
func (d *tracedDevice) Bus() *ssd.Bus { return d.bus }

// Metrics forwards to the inner device.
func (d *tracedDevice) Metrics() sim.DeviceMetrics { return d.inner.Metrics() }

// Write implements sim.Device.
func (d *tracedDevice) Write(lpn ftl.LPN, h trace.Hash, now ssd.Time) (ssd.Time, error) {
	start := time.Since(d.t0).Nanoseconds()
	done, err := d.inner.Write(lpn, h, now)
	end := time.Since(d.t0).Nanoseconds()
	if err == nil {
		d.written[lpn] = h
		d.has[lpn] = true
	}
	d.record(start, end, true)
	return done, err
}

// Read implements sim.Device.
func (d *tracedDevice) Read(lpn ftl.LPN, now ssd.Time) (ssd.Time, error) {
	start := time.Since(d.t0).Nanoseconds()
	done, err := d.inner.Read(lpn, now)
	end := time.Since(d.t0).Nanoseconds()
	d.record(start, end, false)
	return done, err
}

func (d *tracedDevice) read() boundary {
	m := d.inner.Metrics()
	st := d.store.DftlStats()
	return boundary{
		gcRuns:      d.store.GC().Runs,
		transGCRuns: st.TransGCRuns,
		mapMisses:   st.Misses,
		revived:     m.Revived,
		dedupHits:   m.DedupHits,
	}
}

func (d *tracedDevice) record(start, end int64, write bool) {
	now := d.read()
	prev := d.last
	d.last = now
	class := uint8(classRead)
	switch {
	case d.calls < d.precond:
		class = classPrecond
	case now.gcRuns-now.transGCRuns > prev.gcRuns-prev.transGCRuns:
		class = classGC
	case now.mapMisses > prev.mapMisses:
		class = classMapMiss
	case now.revived > prev.revived:
		class = classRevived
	case now.dedupHits > prev.dedupHits:
		class = classDedupHit
	case write:
		class = classProgram
	}
	d.calls++
	d.spans = append(d.spans, span{start: start, end: end, class: class, write: write})
}

// expected returns the content every logical page should read back: its
// last dispatched write, or the preconditioning content if none.
func (d *tracedDevice) expected() []trace.Hash {
	out := make([]trace.Hash, len(d.written))
	for lpn := range out {
		if d.has[lpn] {
			out[lpn] = d.written[lpn]
		} else {
			out[lpn] = sim.PreconditionHash(int64(lpn))
		}
	}
	return out
}

// cellTrace is what the traced run keeps of one cell.
type cellTrace struct {
	name         string
	runStart     int64 // ns since the traced run began
	runEnd       int64
	spans        []span
	result       sim.MultiResult
	telemetryEvs int64
}

// writeSpans writes every span of the traced run as gzipped CSV: one row
// for each cell's Run span, then one per device call, parented to it.
func writeSpans(path string, cells []cellTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "cell,request_id,parent,name,start_ns,end_ns")
	for _, c := range cells {
		fmt.Fprintf(w, "%s,-1,,run,%d,%d\n", c.name, c.runStart, c.runEnd)
		for i, s := range c.spans {
			op := "read"
			if s.write {
				op = "write"
			}
			fmt.Fprintf(w, "%s,%d,run,%s.%s,%d,%d\n", c.name, i, op, classNames[s.class], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
