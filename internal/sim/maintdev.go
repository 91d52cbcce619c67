package sim

import (
	"errors"
	"fmt"

	"zombiessd/internal/ftl"
	"zombiessd/internal/health"
	"zombiessd/internal/recovery"
	"zombiessd/internal/scrub"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// rainFlushInterval is the parity flush barrier: every this many host
// writes, the maintenance pass closes all open stripes so a trailing
// partial stripe (a write burst that stopped mid-stripe, or pages
// dribbling out of the DRAM write buffer) is never uncovered for long.
// Stripes that fill normally flush on completion and never wait for it.
const rainFlushInterval = 1024

// maintDevice runs the drive's background maintenance in the idle gap
// before each host request, then hands the request to the inner device
// (the architecture, behind the DRAM write buffer when one is configured).
// One pass, in a fixed order:
//
//  1. The health governor samples the store's vital signs and gates the
//     request: a dead drive refuses everything, a read-only drive refuses
//     writes, a throttled one delays them. Its verdict comes first because
//     a read-only or dead drive does no new work at all.
//  2. The RAIN die-rebuild daemon re-lands stranded pages (a no-op until a
//     die fails).
//  3. The partial garbage collector migrates at most k valid pages (plus
//     one erase).
//  4. The scrub patrol visits the blocks that came due.
//  5. The inner device services the request.
//  6. After every rainFlushInterval-th successful write, the RAIN flush
//     barrier closes the open stripes.
//
// Steps 2-4 run at the request's arrival time: the bus lands their flash
// work in the gap since each chip last went idle, before the request
// claims the chip timeline, and they see the true host clock, not one
// already delayed by the write buffer. Each store daemon is a no-op while
// its feature is off. A governed write that hits a transient program fault
// re-runs steps 2-6 after a backoff.
type maintDevice struct {
	inner  Device
	store  *ftl.Store       // nil only in governor unit-test rigs
	gov    *health.Governor // nil when the governor is off
	scr    *scrub.Scrubber  // nil when the patrol is off
	writes int64            // successful writes, for the flush barrier
}

// sample reads the drive's vital signs. A nil store reports a perfectly
// healthy drive.
func (d *maintDevice) sample() health.Sample {
	if d.store == nil {
		return health.Sample{}
	}
	return health.Sample{
		FreeBlocks:    d.store.TotalFreeBlocks(),
		GCDebt:        d.store.GCDebt(),
		RetiredBlocks: d.store.FaultStats().RetiredBlocks,
		TotalBlocks:   int(d.store.Geometry().TotalBlocks()),
		LostPages:     d.store.LostPages(),
	}
}

// tick runs steps 2-4 of the pass at now.
func (d *maintDevice) tick(now ssd.Time) error {
	if d.store != nil {
		if err := d.store.RebuildTick(now); err != nil {
			return err
		}
		if err := d.store.PartialGCTick(now); err != nil {
			return err
		}
	}
	if d.scr != nil {
		return d.scr.Tick(now)
	}
	return nil
}

// attempt runs steps 2-6 of the pass for one write.
func (d *maintDevice) attempt(lpn ftl.LPN, h trace.Hash, now ssd.Time) (ssd.Time, error) {
	if err := d.tick(now); err != nil {
		return 0, wrapInterrupted(lpn, err)
	}
	done, err := d.inner.Write(lpn, h, now)
	if err != nil {
		return done, err
	}
	d.writes++
	if d.store != nil && d.writes%rainFlushInterval == 0 {
		if err := d.store.FlushParity(now); err != nil {
			return 0, wrapInterrupted(lpn, err)
		}
	}
	return done, nil
}

// Write implements Device. Under the governor, ErrNoSpace forces read-only
// instead of failing the run, and transient program faults are retried
// with backoff up to the configured bound.
func (d *maintDevice) Write(lpn ftl.LPN, h trace.Hash, now ssd.Time) (ssd.Time, error) {
	if d.gov == nil {
		return d.attempt(lpn, h, now)
	}
	cfg := d.gov.Config()
	switch d.gov.Observe(d.sample(), now) {
	case health.Dead:
		d.gov.NoteRejectedWrite()
		return 0, fmt.Errorf("sim: write of LPN %d rejected: %w", lpn, health.ErrDeviceDead)
	case health.ReadOnly:
		d.gov.NoteRejectedWrite()
		return 0, fmt.Errorf("sim: write of LPN %d rejected: %w", lpn, health.ErrReadOnly)
	case health.Throttled:
		d.gov.NoteThrottled()
		now += cfg.ThrottleDelay
	}

	done, err := d.attempt(lpn, h, now)
	for retry := 0; err != nil && errors.Is(err, ftl.ErrProgramFault) && retry < cfg.MaxRetries; retry++ {
		// A program fault that escaped the FTL's own retry-and-reland
		// machinery is transient from the host's point of view: back off
		// and resubmit against a fresh frontier.
		d.gov.NoteRetry()
		now += cfg.RetryBackoff
		done, err = d.attempt(lpn, h, now)
	}
	if err != nil && errors.Is(err, ftl.ErrNoSpace) {
		// Space exhaustion is a drive-level condition, not a request
		// error: pin read-only so the host keeps its data readable.
		d.gov.ForceReadOnly(now)
		d.gov.NoteRejectedWrite()
		return 0, fmt.Errorf("sim: write of LPN %d rejected: %w (%v)", lpn, health.ErrReadOnly, err)
	}
	return done, err
}

// Read implements Device: only the dead state refuses reads — a throttled
// or read-only drive still serves them at full speed.
func (d *maintDevice) Read(lpn ftl.LPN, now ssd.Time) (ssd.Time, error) {
	if d.gov != nil && d.gov.Observe(d.sample(), now) == health.Dead {
		d.gov.NoteRejectedRead()
		return 0, fmt.Errorf("sim: read of LPN %d rejected: %w", lpn, health.ErrDeviceDead)
	}
	if err := d.tick(now); err != nil {
		return 0, err
	}
	return d.inner.Read(lpn, now)
}

// Metrics implements Device, adding the patrol and RAIN counters.
func (d *maintDevice) Metrics() DeviceMetrics {
	m := d.inner.Metrics()
	if d.scr != nil {
		m.Scrub = d.scr.Stats()
	}
	if d.store != nil && d.store.RainEnabled() {
		m.Rain = d.store.RainStats()
	}
	return m
}

// HealthStats reports the governor's cumulative counters (all zero when
// the governor is off).
func (d *maintDevice) HealthStats() health.Stats {
	if d.gov == nil {
		return health.Stats{}
	}
	return d.gov.Stats()
}

// Bus forwards to the inner device for utilization reporting.
func (d *maintDevice) Bus() *ssd.Bus {
	if br, ok := d.inner.(interface{ Bus() *ssd.Bus }); ok {
		return br.Bus()
	}
	return nil
}

// Store exposes the physical store for wear and capacity introspection.
func (d *maintDevice) Store() *ftl.Store { return d.store }

// Recover implements Recoverer. The inner recovery rebuilds the mapping
// and, through the store's RAIN tail, the stripe masks; the rebuild
// daemon resumes against the pages still stranded on dead dies, partial
// GC restarts its victim selection (Rebuild resets drain positions) and
// the patrol simply resumes. The governor's ladder position and
// forced-read-only pin live in controller RAM, so they reset; durable
// damage (retired blocks, lost pages) survives in the store, and a
// genuinely dead drive re-enters dead on the first post-recovery sample.
func (d *maintDevice) Recover(opts RecoverOptions) (recovery.Report, error) {
	r, err := Recover(d.inner, opts)
	if err == nil && d.gov != nil {
		d.gov.Reset()
	}
	return r, err
}

// ReadHash implements HashReader by forwarding.
func (d *maintDevice) ReadHash(lpn ftl.LPN) (trace.Hash, bool) {
	if hr, ok := d.inner.(HashReader); ok {
		return hr.ReadHash(lpn)
	}
	return trace.Hash{}, false
}
