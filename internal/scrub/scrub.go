// Package scrub is the background patrol daemon real controllers run to
// keep decaying flash readable: driven by simulated time, it walks the
// drive's blocks at a fixed cadence, samples the integrity model's
// estimated RBER, and refresh-relocates pages that have drifted past a
// threshold — before retention age, read disturb and wear push them over
// ECC capability and the data is lost.
//
// The scrubber has no goroutine and no wall clock: the device wrapper in
// internal/sim calls Tick with the arrival time of every host request,
// and the scrubber performs whatever patrol visits came due since the
// last call. Patrol flash operations are stamped at time 0, which the bus
// resolves to "the moment the chip last went idle" — the same trick
// background GC uses — so patrol work fills idle windows that already
// passed instead of queuing ahead of the request that revealed the time.
// Refresh programs (and any GC they trigger) charge real program/erase
// latency and real erase wear, so an aggressive scrub interval shows up
// in both the latency tail and the lifetime harness.
package scrub

import (
	"errors"
	"fmt"

	"zombiessd/internal/fault"
	"zombiessd/internal/ftl"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
)

// DefaultMaxCatchUp bounds how many overdue patrol visits one Tick may
// perform, so a long arrival gap produces a bounded burst instead of a
// stall proportional to the gap.
const DefaultMaxCatchUp = 4

// Config parameterizes the patrol scrubber. The zero value disables it.
type Config struct {
	// Interval is the simulated time between patrol visits; one visit
	// covers one block. A full drive sweep therefore takes
	// Interval × TotalBlocks. 0 disables the scrubber.
	Interval ssd.Time

	// RefreshRBER is the estimated-RBER threshold at or above which a
	// valid page is refresh-relocated; 0 means the integrity model's
	// correctable boundary (fault.DefaultCorrectableRBER when that is
	// defaulted too) — refresh as soon as reads stop being clean.
	RefreshRBER float64

	// MaxCatchUp bounds overdue patrol visits performed by one Tick;
	// 0 means DefaultMaxCatchUp.
	MaxCatchUp int
}

// Enabled reports whether the scrubber patrols at all.
func (c Config) Enabled() bool { return c.Interval > 0 }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Interval < 0 {
		return fmt.Errorf("scrub: Interval must be ≥ 0, got %d", c.Interval)
	}
	if !(c.RefreshRBER >= 0) || c.RefreshRBER > 1 { // rejects NaN too
		return fmt.Errorf("scrub: RefreshRBER must be in [0,1], got %g", c.RefreshRBER)
	}
	if c.MaxCatchUp < 0 {
		return fmt.Errorf("scrub: MaxCatchUp must be ≥ 0, got %d", c.MaxCatchUp)
	}
	return nil
}

// WithDefaults returns c with zero fields filled in, given the integrity
// model the scrubber will patrol for.
func (c Config) WithDefaults(integrity fault.IntegrityConfig) Config {
	if !c.Enabled() {
		return c
	}
	if c.RefreshRBER == 0 {
		c.RefreshRBER = integrity.WithDefaults().CorrectableRBER
	}
	if c.MaxCatchUp == 0 {
		c.MaxCatchUp = DefaultMaxCatchUp
	}
	return c
}

// Stats counts patrol activity.
type Stats struct {
	Ticks         int64 // Tick calls that performed at least one visit
	BlocksVisited int64 // patrol visits (one block each)
	PagesSampled  int64 // valid pages whose estimated RBER was evaluated
	ScrubReads    int64 // media reads issued by the patrol (samples + refresh reads)
	Refreshed     int64 // pages refresh-relocated past the threshold
	UECCFound     int64 // uncorrectable reads the patrol itself discovered
	SkippedVisits int64 // overdue visits dropped by the catch-up bound
}

// Sub returns s minus prev, field-wise.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Ticks:         s.Ticks - prev.Ticks,
		BlocksVisited: s.BlocksVisited - prev.BlocksVisited,
		PagesSampled:  s.PagesSampled - prev.PagesSampled,
		ScrubReads:    s.ScrubReads - prev.ScrubReads,
		Refreshed:     s.Refreshed - prev.Refreshed,
		UECCFound:     s.UECCFound - prev.UECCFound,
		SkippedVisits: s.SkippedVisits - prev.SkippedVisits,
	}
}

// Add returns s plus d, field-wise.
func (s Stats) Add(d Stats) Stats {
	return Stats{
		Ticks:         s.Ticks + d.Ticks,
		BlocksVisited: s.BlocksVisited + d.BlocksVisited,
		PagesSampled:  s.PagesSampled + d.PagesSampled,
		ScrubReads:    s.ScrubReads + d.ScrubReads,
		Refreshed:     s.Refreshed + d.Refreshed,
		UECCFound:     s.UECCFound + d.UECCFound,
		SkippedVisits: s.SkippedVisits + d.SkippedVisits,
	}
}

// Scrubber patrols one store. Not safe for concurrent use; it shares the
// simulator's single-goroutine device contract.
type Scrubber struct {
	cfg     Config
	store   *ftl.Store
	total   int64    // blocks in the drive
	cursor  int64    // next block the patrol will consider
	nextDue ssd.Time // simulated time of the next patrol visit; 0 = not started
	st      Stats
}

// New returns a Scrubber patrolling store, or an error when the config is
// invalid or the store's integrity model is disarmed (there is nothing to
// estimate, so a patrol would be dead code masquerading as coverage).
func New(cfg Config, store *ftl.Store) (*Scrubber, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, errors.New("scrub: config is disabled (Interval 0)")
	}
	if !store.IntegrityArmed() {
		return nil, errors.New("scrub: store's integrity model is disarmed; arm fault.Config.Integrity")
	}
	return &Scrubber{
		cfg:   cfg.WithDefaults(store.IntegrityConfig()),
		store: store,
		total: store.Geometry().TotalBlocks(),
	}, nil
}

// Config returns the scrubber's configuration with defaults applied.
func (sc *Scrubber) Config() Config { return sc.cfg }

// Stats returns cumulative patrol counters.
func (sc *Scrubber) Stats() Stats { return sc.st }

// Tick advances the patrol to the simulated instant now, performing every
// visit that came due since the last call (bounded by MaxCatchUp; dropped
// visits are counted, not deferred — a patrol that fell behind resumes at
// cadence rather than bursting to make up lost ground). The error is
// non-nil only when the store propagates a hard failure (power loss, out
// of space); uncorrectable patrol reads are recorded and absorbed.
func (sc *Scrubber) Tick(now ssd.Time) error {
	if sc.nextDue == 0 {
		// First observation of the clock: schedule the first visit one
		// interval out instead of patrolling a drive nothing has aged.
		sc.nextDue = now + sc.cfg.Interval
		return nil
	}
	visits := 0
	for sc.nextDue <= now && visits < sc.cfg.MaxCatchUp {
		if err := sc.visit(now); err != nil {
			return err
		}
		sc.nextDue += sc.cfg.Interval
		visits++
	}
	if visits > 0 {
		sc.st.Ticks++
	}
	if sc.nextDue <= now {
		skipped := int64((now-sc.nextDue)/sc.cfg.Interval) + 1
		sc.st.SkippedVisits += skipped
		sc.nextDue += ssd.Time(skipped) * sc.cfg.Interval
	}
	return nil
}

// visit patrols the next non-retired block: sample one media read, then
// refresh every valid page whose estimated RBER reached the threshold.
func (sc *Scrubber) visit(clock ssd.Time) error {
	for tried := int64(0); tried < sc.total; tried++ {
		b := ssd.BlockID(sc.cursor)
		sc.cursor = (sc.cursor + 1) % sc.total
		if sc.store.BadBlock(b) {
			continue
		}
		sc.st.BlocksVisited++
		return sc.patrol(b, clock)
	}
	return nil // every block retired; the drive is dead anyway
}

// patrol scans one block. The first live page gets a real media read (the
// patrol's sample — this is what discovers latent UECC); every live page
// past the refresh threshold is relocated to fresh flash.
func (sc *Scrubber) patrol(b ssd.BlockID, clock ssd.Time) error {
	tel := sc.store.Telemetry()
	prevOrigin := tel.EnterOrigin(telemetry.OriginScrub)
	refreshedBefore, ueccBefore := sc.st.Refreshed, sc.st.UECCFound
	spanEnd := clock
	defer func() {
		tel.ExitOrigin(prevOrigin)
		if tel.On() {
			tel.EmitSpan(telemetry.OriginScrub, "patrol visit", clock, spanEnd, map[string]any{
				"block":     int64(b),
				"refreshed": sc.st.Refreshed - refreshedBefore,
				"uecc":      sc.st.UECCFound - ueccBefore,
			})
		}
	}()
	geo := sc.store.Geometry()
	first := geo.FirstPage(b)
	sampled := false
	for i := 0; i < geo.PagesPerBlock; i++ {
		p := first + ssd.PPN(i)
		if sc.store.State(p) != ftl.PageValid || sc.store.LostPage(p) {
			continue
		}
		sc.st.PagesSampled++
		if !sampled {
			sampled = true
			sc.st.ScrubReads++
			done, err := sc.store.ScrubRead(p, 0, clock)
			if done > spanEnd {
				spanEnd = done
			}
			if err != nil {
				if errors.Is(err, ftl.ErrUncorrectable) {
					sc.st.UECCFound++
					continue
				}
				return err
			}
		}
		if sc.store.State(p) != ftl.PageValid {
			// The sample read repaired the page onto fresh flash (stripe
			// reconstruction), or the GC it triggered relocated a later
			// page of this block; either way the copy here is stale.
			continue
		}
		if sc.store.EstimatedRBER(p, clock) < sc.cfg.RefreshRBER {
			continue
		}
		// RefreshPage reads the old copy before reprogramming it.
		sc.st.ScrubReads++
		done, err := sc.store.RefreshPage(p, 0, clock)
		if done > spanEnd {
			spanEnd = done
		}
		if err != nil {
			if errors.Is(err, ftl.ErrUncorrectable) {
				sc.st.UECCFound++
				continue
			}
			if errors.Is(err, ftl.ErrPageState) {
				// The GC that made room for the refresh consumed the page
				// mid-flight; its content already lives elsewhere.
				continue
			}
			return err
		}
		sc.st.Refreshed++
	}
	return nil
}
