// Package telemetry is the simulator's observability layer: a registry of
// named counters, gauges and latency histograms sampled on simulated time
// into a bounded time-series ring, per-request latency attribution that
// decomposes every host request's completion time into queue-wait,
// GC-blocked, bus, chip, ECC-retry and controller components, and a
// flash-op timeline tracer that emits Chrome trace-event JSON viewable in
// Perfetto.
//
// The layer is strictly side-effect-free: it observes times the simulator
// already computed and never feeds anything back, so attaching it cannot
// change a single simulated-time result — a discipline pinned by
// TestNoTelemetryBitIdentity. Every method is safe on a nil *Telemetry
// (the disabled state), so instrumented code needs no guards and a
// telemetry-off run costs one nil check per hook.
package telemetry

import (
	"fmt"

	"zombiessd/internal/ssd"
	"zombiessd/internal/stats"
)

// Origin classifies who issued a flash operation: the host request being
// serviced, the garbage collector, the ECC retry ladder, the background
// scrubber, a DRAM write-buffer eviction flush, the preconditioning fill,
// post-crash recovery, or the DFTL mapping cache (translation-page fills
// on CMT misses and dirty-frame writebacks).
type Origin uint8

// Operation origins.
const (
	OriginHost Origin = iota
	OriginGC
	OriginECC
	OriginScrub
	OriginFlush
	OriginPrecond
	OriginRecovery
	OriginMapMiss
	OriginMapWriteback
	numOrigins
)

// String names the origin (also the tracer's event category).
func (o Origin) String() string {
	switch o {
	case OriginHost:
		return "host"
	case OriginGC:
		return "gc"
	case OriginECC:
		return "ecc"
	case OriginScrub:
		return "scrub"
	case OriginFlush:
		return "flush"
	case OriginPrecond:
		return "precond"
	case OriginRecovery:
		return "recovery"
	case OriginMapMiss:
		return "map-miss"
	case OriginMapWriteback:
		return "map-writeback"
	default:
		return fmt.Sprintf("Origin(%d)", uint8(o))
	}
}

// DefaultSampleInterval is the simulated time between time-series samples
// when the config leaves it zero: 10 ms keeps a multi-second run to a few
// hundred rows.
const DefaultSampleInterval = 10 * ssd.Millisecond

// DefaultTraceCap bounds the tracer's event ring when the config leaves it
// zero. At 88 bytes per record this is under 6 MB of retained timeline.
const DefaultTraceCap = 1 << 16

// DefaultSeriesCap bounds the time-series ring when the config leaves it
// zero.
const DefaultSeriesCap = 1 << 12

// Config parameterizes one telemetry instance.
type Config struct {
	// Enabled turns the layer on. A zero Config (or a nil *Telemetry)
	// observes nothing.
	Enabled bool

	// SampleInterval is the simulated time between time-series samples;
	// 0 means DefaultSampleInterval.
	SampleInterval ssd.Time

	// TraceCap bounds the tracer's retained events (a ring keeping the
	// most recent); 0 means DefaultTraceCap. Negative disables the tracer
	// while keeping the registry and attribution live.
	TraceCap int

	// SeriesCap bounds the time-series ring (most recent samples kept);
	// 0 means DefaultSeriesCap.
	SeriesCap int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SampleInterval < 0 {
		return fmt.Errorf("telemetry: sample interval must be ≥ 0, got %d", c.SampleInterval)
	}
	return nil
}

// WithDefaults returns c with zero fields filled in.
func (c Config) WithDefaults() Config {
	if c.SampleInterval == 0 {
		c.SampleInterval = DefaultSampleInterval
	}
	if c.TraceCap == 0 {
		c.TraceCap = DefaultTraceCap
	}
	if c.SeriesCap == 0 {
		c.SeriesCap = DefaultSeriesCap
	}
	return c
}

// Telemetry is one device's observability instance. It is not safe for
// concurrent use: it shares the simulator's single-goroutine device
// contract (parallel experiment arms each get their own instance).
type Telemetry struct {
	cfg    Config
	reg    *Registry
	attr   *Attribution
	tracer *Tracer

	origin Origin // origin applied to ops observed right now

	// Per-chip/channel counter vectors, resolved once at Attach.
	chipOps     []*Counter
	chipBusyUS  []*Counter
	channelOps  []*Counter
	originOps   [numOrigins][3]*Counter // [origin][OpKind]
	geoAttached bool

	// Sampling clock.
	nextSample ssd.Time
	// clock is the largest simulated time observed so far; exporters use
	// it to evaluate gauges "at the end of the run".
	clock ssd.Time

	// OnRequestEnd, when set, receives every finished host request's
	// attribution record (tests use it to check the exact-sum property).
	OnRequestEnd func(Request)
}

// New returns a Telemetry for cfg, or nil when cfg.Enabled is false — the
// nil instance is the canonical "off" state and every method accepts it.
func New(cfg Config) *Telemetry {
	if !cfg.Enabled {
		return nil
	}
	cfg = cfg.WithDefaults()
	t := &Telemetry{
		cfg:  cfg,
		reg:  NewRegistry(),
		attr: newAttribution(),
	}
	if cfg.TraceCap > 0 {
		t.tracer = newTracer(cfg.TraceCap)
	}
	t.attr.register(t.reg)
	return t
}

// On reports whether t observes anything.
func (t *Telemetry) On() bool { return t != nil }

// Config returns the configuration with defaults applied (zero when off).
func (t *Telemetry) Config() Config {
	if t == nil {
		return Config{}
	}
	return t.cfg
}

// Registry returns the metrics registry, or nil when off.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Attribution returns the latency-attribution state, or nil when off.
func (t *Telemetry) Attribution() *Attribution {
	if t == nil {
		return nil
	}
	return t.attr
}

// Tracer returns the timeline tracer, or nil when off or trace-disabled.
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Attach prepares the per-chip and per-channel counter vectors for geo and
// names the tracer's tracks. Called once by the device builder.
func (t *Telemetry) Attach(geo ssd.Geometry) {
	if t == nil || t.geoAttached {
		return
	}
	t.geoAttached = true
	chips := geo.TotalChips()
	t.chipOps = make([]*Counter, chips)
	t.chipBusyUS = make([]*Counter, chips)
	for c := 0; c < chips; c++ {
		lbl := Labels{"chip": fmt.Sprint(c)}
		t.chipOps[c] = t.reg.Counter("flash_chip_ops_total",
			"flash operations stamped per chip", lbl)
		t.chipBusyUS[c] = t.reg.Counter("flash_chip_busy_us_total",
			"chip-busy simulated microseconds per chip", lbl)
	}
	t.channelOps = make([]*Counter, geo.Channels)
	for ch := 0; ch < geo.Channels; ch++ {
		t.channelOps[ch] = t.reg.Counter("flash_channel_transfers_total",
			"page transfers per channel", Labels{"channel": fmt.Sprint(ch)})
	}
	for o := Origin(0); o < numOrigins; o++ {
		for k := ssd.OpRead; k <= ssd.OpErase; k++ {
			t.originOps[o][k] = t.reg.Counter("flash_ops_total",
				"flash operations by kind and origin",
				Labels{"kind": k.String(), "origin": o.String()})
		}
	}
	t.tracer.attach(geo)
}

// EnterOrigin sets the origin applied to subsequently observed operations
// and returns the previous one; callers restore it with ExitOrigin. The
// pattern is
//
//	prev := tel.EnterOrigin(telemetry.OriginGC)
//	defer tel.ExitOrigin(prev)
func (t *Telemetry) EnterOrigin(o Origin) Origin {
	if t == nil {
		return OriginHost
	}
	prev := t.origin
	t.origin = o
	return prev
}

// ExitOrigin restores the origin returned by EnterOrigin.
func (t *Telemetry) ExitOrigin(prev Origin) {
	if t == nil {
		return
	}
	t.origin = prev
}

// EnterECC switches to OriginECC only when the current origin is
// OriginHost: retry reads issued while GC, scrub or recovery work is in
// flight keep their enclosing origin, so the daemon that triggered them
// is charged — and the host request's attribution never double-counts
// retry time that already surfaces as queue wait. Restore with
// ExitOrigin.
func (t *Telemetry) EnterECC() Origin {
	if t == nil {
		return OriginHost
	}
	prev := t.origin
	if prev == OriginHost {
		t.origin = OriginECC
	}
	return prev
}

// EnterMapPhase switches to a DFTL mapping origin (OriginMapMiss or
// OriginMapWriteback) only when the current origin is OriginHost, the same
// discipline as EnterECC: translation traffic issued inside GC, scrub or
// recovery keeps the enclosing origin, so the daemon that caused it is
// charged — and the host request's attribution never double-counts
// mapping work that already surfaces as queue wait. Restore with
// ExitOrigin.
func (t *Telemetry) EnterMapPhase(o Origin) Origin {
	if t == nil {
		return OriginHost
	}
	prev := t.origin
	if prev == OriginHost {
		t.origin = o
	}
	return prev
}

// ObserveOp implements ssd.OpObserver: counters, attribution and the
// timeline get every stamped flash operation, classified by the current
// origin.
func (t *Telemetry) ObserveOp(op ssd.OpObservation) {
	if t == nil {
		return
	}
	if op.Done > t.clock {
		t.clock = op.Done
	}
	if t.geoAttached {
		t.chipOps[op.Chip].Inc()
		t.chipBusyUS[op.Chip].Add(int64(op.Done - op.Start))
		if op.Kind != ssd.OpErase {
			t.channelOps[op.Channel].Inc()
		}
		t.originOps[t.origin][op.Kind].Inc()
	}
	t.attr.observeOp(t.origin, op)
	t.tracer.emitOp(t.origin, op)
}

// BeginRequest opens a host-request attribution scope at the request's
// arrival time. Operations observed until EndRequest are charged to it.
func (t *Telemetry) BeginRequest(op RequestOp, arrival ssd.Time) {
	if t == nil {
		return
	}
	t.attr.begin(op, arrival)
}

// DeclareTenants sizes the per-tenant attribution dimension and registers
// per-tenant latency histograms. The multi-tenant engine calls it once
// before the run; single-submitter runs never do, keeping their registry
// contents identical to the pre-tenant layer.
func (t *Telemetry) DeclareTenants(names []string) {
	if t == nil {
		return
	}
	t.attr.declareTenants(names, t.reg)
}

// BeginRequestTenant opens a host-request attribution scope tagged with
// the owning tenant and the engine's dispatch instant; the arbiter hold
// (dispatch − arrival) is charged to the queue phase. With dispatch equal
// to arrival and tenant -1 it reduces exactly to BeginRequest.
func (t *Telemetry) BeginRequestTenant(op RequestOp, arrival, dispatch ssd.Time, tenant int) {
	if t == nil {
		return
	}
	t.attr.beginTenant(op, arrival, dispatch, tenant)
}

// EndRequest closes the current request scope with its completion time,
// folds the phase decomposition into the per-phase histograms, and emits
// the request span onto the timeline.
func (t *Telemetry) EndRequest(done ssd.Time) {
	if t == nil {
		return
	}
	if done > t.clock {
		t.clock = done
	}
	req := t.attr.end(done)
	t.tracer.emitRequest(&req)
	if t.OnRequestEnd != nil {
		t.OnRequestEnd(req)
	}
}

// EmitSpan places one named complete span (e.g. a GC cycle, a patrol
// visit, a recovery scan) onto the daemon track of the timeline.
func (t *Telemetry) EmitSpan(origin Origin, name string, start, end ssd.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.tracer.emitSpan(origin, name, start, end, args)
}

// Now returns the largest simulated time this instance has observed — the
// natural "as of" instant for gauge evaluation when exporting after a run.
func (t *Telemetry) Now() ssd.Time {
	if t == nil {
		return 0
	}
	return t.clock
}

// Sample records one time-series row when now has crossed the sampling
// clock. The runner calls it once per request with the request's arrival
// time; rows land at most once per SampleInterval of simulated time.
func (t *Telemetry) Sample(now ssd.Time) {
	if t == nil {
		return
	}
	if now > t.clock {
		t.clock = now
	}
	if t.nextSample == 0 {
		t.nextSample = now + t.cfg.SampleInterval
		t.reg.sample(now, t.cfg.SeriesCap)
		return
	}
	if now < t.nextSample {
		return
	}
	t.reg.sample(now, t.cfg.SeriesCap)
	// Skip past long idle gaps instead of emitting a row per missed tick.
	t.nextSample += ((now-t.nextSample)/t.cfg.SampleInterval + 1) * t.cfg.SampleInterval
}

// RegisterGauge adds a callback gauge sampled into the time series (and
// exported to Prometheus). Safe on a nil instance.
func (t *Telemetry) RegisterGauge(name, help string, labels Labels, f GaugeFunc) {
	if t == nil {
		return
	}
	t.reg.Gauge(name, help, labels, f)
}

// PhaseHistogram returns the per-phase latency histogram for the given
// request op, or nil when off. Exposed for reports and tests.
func (t *Telemetry) PhaseHistogram(op RequestOp, p Phase) *stats.Histogram {
	if t == nil {
		return nil
	}
	return t.attr.hist(op, p)
}
