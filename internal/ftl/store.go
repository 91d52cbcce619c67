package ftl

import (
	"errors"
	"fmt"
	"math"

	"zombiessd/internal/dftl"
	"zombiessd/internal/fault"
	"zombiessd/internal/rain"
	"zombiessd/internal/sparse"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
)

// PageState is the lifecycle state of one physical page.
type PageState uint8

// Page states. A page is Free after its block is erased, Valid while it
// backs a live logical page, and Invalid (garbage/zombie) after an update
// supersedes it. The dead-value pool may flip Invalid pages back to Valid —
// the revival this repository exists for.
const (
	PageFree PageState = iota
	PageValid
	PageInvalid
)

// String names the state.
func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// GarbageScorer reports the popularity degree of pooled garbage pages; the
// popularity-aware GC victim selector consults it so blocks holding popular
// zombies are spared. core.Pool satisfies it.
type GarbageScorer interface {
	GarbagePopularity(ssd.PPN) (uint8, bool)
}

// StoreConfig parameterizes the physical store.
type StoreConfig struct {
	// GCFreeBlockThreshold is the per-plane low-water mark: when a plane
	// has fewer free blocks, GC runs before the next allocation targets
	// it. Must be at least 2 so relocation always has a destination.
	GCFreeBlockThreshold int

	// PopularityWeight enables popularity-aware victim selection
	// (Section IV-D): victim score = invalidPages − weight × Σ popularity
	// of pooled garbage pages in the block. 0 selects pure greedy.
	PopularityWeight float64

	// WearAware makes the allocator take the least-erased free block when
	// the write frontier rolls, spreading erases across the plane
	// (the FTL's wear-levelling duty, Section IV-B).
	WearAware bool

	// SoftGCThreshold enables background garbage collection: when a
	// plane's free list falls below this mark, one GC cycle is scheduled
	// right after the current request instead of waiting for the hard
	// threshold to stall a future request. 0 disables it; otherwise it
	// must exceed GCFreeBlockThreshold. Background GC overlaps with
	// arrival gaps, trimming the tail latency GC stalls cause.
	SoftGCThreshold int

	// UserStreams is the number of host write streams per plane (hot/cold
	// separation, as in multi-streamed SSDs): pages written to different
	// streams never share a block, so data with similar lifetimes ages
	// together and GC victims are cleaner. 0 or 1 selects the classic
	// single-frontier FTL.
	UserStreams int

	// SeparateGCStream gives GC relocation its own write frontier instead
	// of mixing relocated (cold) pages into host stream 0.
	SeparateGCStream bool

	// FaultPenaltyWeight enables fault-aware victim selection: the victim
	// score is reduced by weight × accumulated program-status failures, so
	// GC prefers relocating onto (and recycling) trustworthy flash over
	// blocks that keep failing programs. 0 ignores fault history, keeping
	// victim choices bit-identical to the fault-unaware policy.
	FaultPenaltyWeight float64

	// DrainSuspects prioritizes blocks that have reached the suspect
	// threshold (Faults.SuspectThreshold): such a block will be retired at
	// its next erase anyway, so collecting it first moves its valid pages
	// to healthy flash promptly and takes the capacity hit before more
	// programs can fail in it. No-op when Faults.SuspectThreshold is 0.
	DrainSuspects bool

	// Faults is the reliability plan: program-status failures (retry on a
	// fresh page, mark the block suspect), erase failures (retire the
	// block as bad) and ECC read retries, optionally wear-scaled. The zero
	// value models a perfect drive and changes nothing.
	Faults fault.Config

	// Preempt is the preemptible-GC policy (see preempt.go): idle-window
	// partial victim drains, read-over-GC erase/program suspension, and
	// multi-victim lookahead batching. The zero value keeps GC blocking
	// and bit-identical to the pre-preemption collector.
	Preempt PreemptConfig

	// RAIN is the intra-SSD parity plan (see rain.go and internal/rain):
	// XOR parity striped across channels, uncorrectable-read
	// reconstruction, and die-failure survival. The zero value reserves
	// no parity slots and is bit-identical to a store without the field.
	RAIN rain.Config

	// DFTL is the flash-resident mapping plan (see dftl.go and
	// internal/dftl): a bounded cached mapping table paged against
	// translation pages that are programmed to a dedicated translation
	// stream and garbage-collected as a second GC stream. The zero value
	// keeps the mapping RAM-resident and is bit-identical to a store
	// without the field.
	DFTL dftl.Config
}

// DefaultStoreConfig returns a 2-block threshold, greedy GC.
func DefaultStoreConfig() StoreConfig {
	return StoreConfig{GCFreeBlockThreshold: 2}
}

// Validate reports whether the configuration is usable.
func (c StoreConfig) Validate() error {
	if c.GCFreeBlockThreshold < 2 {
		return fmt.Errorf("ftl: GC threshold must be ≥ 2 (relocation needs a destination), got %d", c.GCFreeBlockThreshold)
	}
	if c.PopularityWeight < 0 {
		return fmt.Errorf("ftl: popularity weight must be ≥ 0, got %g", c.PopularityWeight)
	}
	if c.FaultPenaltyWeight < 0 {
		return fmt.Errorf("ftl: fault penalty weight must be ≥ 0, got %g", c.FaultPenaltyWeight)
	}
	if c.SoftGCThreshold != 0 && c.SoftGCThreshold <= c.GCFreeBlockThreshold {
		return fmt.Errorf("ftl: soft GC threshold %d must exceed the hard threshold %d",
			c.SoftGCThreshold, c.GCFreeBlockThreshold)
	}
	if c.UserStreams < 0 || c.UserStreams > 8 {
		return fmt.Errorf("ftl: user streams must be in [0,8], got %d", c.UserStreams)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Preempt.Validate(); err != nil {
		return err
	}
	if err := c.RAIN.Validate(); err != nil {
		return err
	}
	if err := c.DFTL.Validate(); err != nil {
		return err
	}
	return nil
}

// GCStats counts garbage-collection activity.
type GCStats struct {
	Runs           int64 // victim selections
	Relocated      int64 // valid pages copied out of victims
	Erased         int64 // blocks erased
	Background     int64 // cycles initiated by the soft threshold
	PartialWindows int64 // idle windows in which partial GC made progress
	PartialPages   int64 // valid pages migrated inside idle windows
}

// ErrNoSpace is wrapped by Program when a plane has no free page and GC can
// reclaim nothing — the host space is oversubscribed for this geometry.
var ErrNoSpace = fmt.Errorf("ftl: out of free pages (drive oversubscribed)")

// ErrProgramFault is wrapped by Program when injected program-status
// failures burned every allowed attempt without landing the data.
var ErrProgramFault = fmt.Errorf("ftl: program failed on every retry attempt")

// ErrPageState is wrapped by Invalidate/Revalidate/RefreshPage when the
// page is not in the state the transition requires. It marks a
// bookkeeping inconsistency — mapper and store disagree about a page —
// which degraded operation must surface as an error, never a panic.
var ErrPageState = fmt.Errorf("ftl: page state inconsistent")

// blockInfo is per-block accounting.
type blockInfo struct {
	valid     int32
	invalid   int32
	erases    int32
	progFails int32 // injected program-status failures (suspect tracking)
	reads     int64 // reads since last erase (read-disturb input; integrity only)
	free      bool
	active    bool
	bad       bool // retired: never erased, allocated or collected again
	dead      bool // its die failed: unreadable, but valid pages await RAIN rebuild
	draining  bool // queued by the partial collector; foreground GC skips it
	trans     bool // holds translation pages; collected by the translation GC stream
}

// frontier is one open write block.
type frontier struct {
	active   ssd.BlockID
	nextPage int
}

// planeState is the per-plane allocation context: a free-block list plus
// one write frontier per stream (the last frontier belongs to GC when
// SeparateGCStream is set).
type planeState struct {
	freeBlocks []ssd.BlockID
	frontiers  []frontier
}

// Store owns the physical pages of the drive: states, per-block counters,
// per-plane free lists and active (write-frontier) blocks, and garbage
// collection. All flash operations are stamped on the Bus, so GC stalls
// surface as queuing delay for subsequent requests on the same chip.
type Store struct {
	cfg    StoreConfig
	geo    ssd.Geometry
	bus    *ssd.Bus
	state  *sparse.Array[PageState]
	blocks []blockInfo
	planes []planeState

	// planeOrder is the channel-striped allocation order: consecutive host
	// writes land on different chips, exploiting SSD parallelism.
	planeOrder []int
	cursor     int

	// effThreshold is the free-block low-water mark GC maintains: at least
	// the configured threshold, and at least one more block than there are
	// write frontiers, so every stream can roll without exhausting the
	// plane between GC cycles.
	effThreshold int

	gc GCStats

	// Partial-GC state (see preempt.go): per-plane resumable drain
	// positions and the scratch slice the idle-order plane sort reuses.
	// Idle with the zero PreemptConfig.
	drains       []drainState
	drainScratch []int

	// inj draws fault decisions; nil models a perfect drive. faults
	// counts the injected failures and the recovery work they caused.
	inj    *fault.Injector
	faults fault.Stats

	// Integrity-model state (see integrity.go): the RBER estimator, the
	// per-page program timestamps it ages against, and the pages whose
	// data an uncorrectable read has already destroyed. All nil/empty
	// while the model is disarmed — no per-read cost, no draws.
	integ        *fault.Estimator
	progTime     []ssd.Time
	lost         []bool
	lostCount    int64 // pages currently marked lost (health governor input)
	integRetries int   // ECC ladder reads charged per uncorrectable read

	// Crash-consistency state (see oob.go): per-page OOB records, the
	// durable mapping journal, the monotonic sequence counter, and the
	// armed power-loss countdown.
	oob        *sparse.Array[OOB]
	journal    []Binding
	journalCap int
	seq        uint64
	crashAt    int64 // Faults.CrashAtOp; 0 = never
	opCount    int64 // flash ops counted while armed
	crashed    bool  // the one-shot trigger has fired

	// OnRelocate is called when GC moves a valid page; mapping layers
	// rebind LPNs here. Nil is allowed.
	OnRelocate func(src, dst ssd.PPN)

	// OwnerOf asks the mapping layer for the current logical owner of a
	// valid physical page; GC relocation stamps the copy's OOB with it so
	// recovery rebinds the right LPN even for revived or deduplicated
	// pages. Nil falls back to the source page's own OOB stamp.
	OwnerOf func(ppn ssd.PPN) (LPN, bool)

	// OnEraseGarbage is called for every invalid page destroyed by an
	// erase; the dead-value pool drops its zombies here. Nil is allowed.
	OnEraseGarbage func(ppn ssd.PPN)

	// Scorer provides garbage popularity for popularity-aware GC. Nil
	// (or PopularityWeight 0) selects greedy GC.
	Scorer GarbageScorer

	// Tel is the observability instance the device builder wires in; nil
	// (the default) observes nothing. The store tags GC and ECC-retry
	// operations with their origin and emits GC-cycle spans through it —
	// all strictly after the bus has stamped the timeline, so telemetry
	// cannot change a simulated-time result.
	Tel *telemetry.Telemetry

	// Multi-tenant attribution (see tenant.go): per-page owner stamps, the
	// scoped current tenant, and the per-tenant flash ledger. All nil/idle
	// until EnableTenants; like Tel, strictly observational.
	pageOwner   []int16
	curTenant   int16
	tenantStats []TenantStoreStats

	// RAIN state (see rain.go): the stripe tracker, its activity
	// counters, and the die-failure trigger with the rebuild daemon's
	// resumable scan position. rain is nil — no parity slots, no stripe
	// bookkeeping — unless StoreConfig.RAIN enables it; the die-failure
	// fields idle at zero unless Faults.DieFailAtOp arms them.
	rain      *rain.Tracker
	rainStats rain.Stats
	deadPlane []bool // planes of failed dies; allocation and drains skip them

	dieFailAt    int64    // Faults.DieFailAtOp; 0 = never
	dieOps       int64    // host ops counted while armed
	dieFailed    bool     // the one-shot trigger has fired
	dieFailClock ssd.Time // when the die died (rebuild-time reporting)

	rebuildCursor ssd.PPN  // resumable rebuild-daemon scan position
	rebuildFound  bool     // the current sweep found work (another pass needed)
	rebuildDone   bool     // a full sweep found nothing left to rebuild
	rebuildClock  ssd.Time // when the daemon last re-landed a page

	// DFTL state (see dftl.go): the cached mapping table (nil until
	// AttachCMT on a DFTL-enabled config), the mapping updates data GC
	// has produced but not yet folded into flash translation pages, the
	// spare half of that double-buffered queue, and the one translation-page
	// scratch buffer read-modify-writes and recovery checkpoints build in.
	cmt      *dftl.CMT
	mapPend  []mapUpdate
	mapSpare []mapUpdate
	transBuf []ssd.PPN
	// wbTVPN/wbActive guard the translation page currently being written
	// back: its GC rebindings must stay queued, not be folded into flash by
	// a nested flush, or the write-back's pre-GC snapshot would overwrite
	// them (see writebackFrame).
	wbTVPN   uint32
	wbActive bool

	// LookupOf asks the mapping layer for lpn's current binding; the
	// pending-map-update flush consults it so a GC rebinding that was
	// superseded by a later host write is discarded instead of clobbering
	// the newer translation entry. Nil applies pending updates as-is.
	LookupOf func(lpn LPN) (ssd.PPN, bool)
}

// mapUpdate is one GC-produced mapping rebinding awaiting its translation
// page (see flushMapUpdates in dftl.go).
type mapUpdate struct {
	tvpn uint32
	lpn  LPN
	ppn  ssd.PPN
}

// NewStore returns a Store over bus with every block free.
func NewStore(cfg StoreConfig, bus *ssd.Bus) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo := bus.Geometry()
	if cfg.GCFreeBlockThreshold >= geo.BlocksPerPlane {
		return nil, fmt.Errorf("ftl: GC threshold %d must be below blocks per plane %d",
			cfg.GCFreeBlockThreshold, geo.BlocksPerPlane)
	}
	if cfg.SoftGCThreshold >= geo.BlocksPerPlane {
		return nil, fmt.Errorf("ftl: soft GC threshold %d must be below blocks per plane %d",
			cfg.SoftGCThreshold, geo.BlocksPerPlane)
	}
	cfg.Preempt = cfg.Preempt.WithDefaults()
	cfg.DFTL = cfg.DFTL.WithDefaults()
	s := &Store{
		cfg:     cfg,
		geo:     geo,
		bus:     bus,
		state:   sparse.New(geo.TotalPages(), PageFree),
		blocks:  make([]blockInfo, geo.TotalBlocks()),
		planes:  make([]planeState, geo.TotalPlanes()),
		drains:  make([]drainState, geo.TotalPlanes()),
		inj:     fault.New(cfg.Faults),
		integ:   fault.NewEstimator(cfg.Faults),
		oob:     sparse.New(geo.TotalPages(), OOB{}),
		crashAt: cfg.Faults.CrashAtOp,
	}
	if pc := cfg.Preempt; pc.SuspendEnabled() {
		bus.ConfigureSuspend(ssd.SuspendConfig{
			MaxPerOp:    pc.MaxSuspends,
			SuspendCost: pc.SuspendCost,
			ResumeCost:  pc.ResumeCost,
		})
	}
	if s.integ != nil {
		s.progTime = make([]ssd.Time, geo.TotalPages())
		s.integRetries = cfg.Faults.WithDefaults().ReadRetries
	}
	if s.integ != nil || cfg.Faults.DieFailAtOp > 0 {
		// Loss marks are kept for the integrity model and for die failure
		// alike, so both loss paths share one counter (LostPages).
		s.lost = make([]bool, geo.TotalPages())
	}
	if cfg.RAIN.Enabled() {
		t, err := rain.NewTracker(geo, cfg.RAIN)
		if err != nil {
			return nil, err
		}
		s.rain = t
	}
	if df := cfg.Faults.DieFailAtOp; df > 0 {
		if dies := geo.TotalChips() * geo.DiesPerChip; cfg.Faults.DieFailDie >= dies {
			return nil, fmt.Errorf("fault: DieFailDie %d outside the drive's %d dies",
				cfg.Faults.DieFailDie, dies)
		}
		s.dieFailAt = df
		s.deadPlane = make([]bool, geo.TotalPlanes())
	}
	s.journalCap = int(geo.TotalPages())
	if s.journalCap < journalCapFloor {
		s.journalCap = journalCapFloor
	}
	frontiers := cfg.UserStreams
	if frontiers < 1 {
		frontiers = 1
	}
	if cfg.SeparateGCStream {
		frontiers++
	}
	if cfg.DFTL.Enabled() {
		// The translation stream is always the last frontier: translation
		// pages never share a block with host or relocated data, so the
		// translation GC stream collects whole translation blocks.
		frontiers++
	}
	s.effThreshold = cfg.GCFreeBlockThreshold
	if s.effThreshold < frontiers+1 {
		s.effThreshold = frontiers + 1
	}
	if frontiers+s.effThreshold >= geo.BlocksPerPlane {
		return nil, fmt.Errorf("ftl: %d frontiers + threshold %d exceed blocks per plane %d",
			frontiers, s.effThreshold, geo.BlocksPerPlane)
	}
	for p := range s.planes {
		pl := &s.planes[p]
		pl.freeBlocks = make([]ssd.BlockID, 0, geo.BlocksPerPlane)
		// Push in reverse so blocks are consumed in ascending order.
		for i := geo.BlocksPerPlane - 1; i >= frontiers; i-- {
			b := geo.BlockAt(p, i)
			s.blocks[b].free = true
			pl.freeBlocks = append(pl.freeBlocks, b)
		}
		pl.frontiers = make([]frontier, frontiers)
		for f := 0; f < frontiers; f++ {
			b := geo.BlockAt(p, f)
			s.blocks[b].active = true
			if cfg.DFTL.Enabled() && f == frontiers-1 {
				s.blocks[b].trans = true
			}
			pl.frontiers[f] = frontier{active: b}
		}
	}
	// Channel-striped plane order: chip varies fastest.
	chips := geo.TotalChips()
	perChip := geo.PlanesPerChip()
	s.planeOrder = make([]int, geo.TotalPlanes())
	for i := range s.planeOrder {
		chip := i % chips
		within := i / chips
		s.planeOrder[i] = chip*perChip + within%perChip
	}
	return s, nil
}

// Geometry returns the drive geometry.
func (s *Store) Geometry() ssd.Geometry { return s.geo }

// UsablePages returns the hard upper bound on simultaneously valid pages:
// total pages minus the per-plane free reserve GC maintains. Hosts
// oversubscribing this bound will hit ErrNoSpace.
func (s *Store) UsablePages() int64 {
	reserve := int64(s.geo.TotalPlanes()) * int64(s.effThreshold) * int64(s.geo.PagesPerBlock)
	u := s.geo.TotalPages() - reserve
	if s.rain != nil {
		// One page per stripe is parity, in reserve blocks and data blocks
		// alike, so only the data fraction of what remains can hold host
		// pages.
		w := int64(s.rain.Width())
		u = u * (w - 1) / w
	}
	return u
}

// UsablePagesNow returns UsablePages minus the pages lost to retired (bad)
// blocks — the capacity the drive can still offer at this point of its
// life. It equals UsablePages on a fault-free drive and shrinks
// monotonically as blocks retire; the lifetime harness samples it per
// epoch and declares the drive dead when it crosses the capacity floor.
func (s *Store) UsablePagesNow() int64 {
	u := s.UsablePages() - s.faults.RetiredBlocks*int64(s.geo.PagesPerBlock)
	if u < 0 {
		return 0
	}
	return u
}

// State returns the current state of page p.
func (s *Store) State(p ssd.PPN) PageState { return s.state.Get(int64(p)) }

// setState writes page p's state into the sparse state array.
func (s *Store) setState(p ssd.PPN, st PageState) { s.state.Set(int64(p), st) }

// setOOB writes page p's OOB record into the sparse OOB array.
func (s *Store) setOOB(p ssd.PPN, o OOB) { s.oob.Set(int64(p), o) }

// GC returns cumulative garbage-collection statistics.
func (s *Store) GC() GCStats { return s.gc }

// FaultStats returns the injected-fault counters accumulated so far. All
// zeros on a fault-free drive.
func (s *Store) FaultStats() fault.Stats { return s.faults }

// BadBlock reports whether b has been retired from service.
func (s *Store) BadBlock(b ssd.BlockID) bool { return s.blocks[b].bad }

// EraseCountOf returns the number of erases block b has endured.
func (s *Store) EraseCountOf(b ssd.BlockID) int32 { return s.blocks[b].erases }

// FreeBlocksInPlane returns the free-list length of a plane (for tests and
// introspection).
func (s *Store) FreeBlocksInPlane(plane int) int { return len(s.planes[plane].freeBlocks) }

// Telemetry returns the observability instance wired into this store (nil
// when telemetry is off).
func (s *Store) Telemetry() *telemetry.Telemetry { return s.Tel }

// TotalFreeBlocks returns the free-list length summed over every plane.
func (s *Store) TotalFreeBlocks() int {
	var n int
	for p := range s.planes {
		n += len(s.planes[p].freeBlocks)
	}
	return n
}

// GCDebt returns how many free blocks GC currently owes the drive: the sum
// over planes of the shortfall below the effective low-water mark. A
// positive debt means upcoming writes on those planes will pay for GC
// cycles before they can allocate.
func (s *Store) GCDebt() int {
	var debt int
	for p := range s.planes {
		if short := s.effThreshold - len(s.planes[p].freeBlocks); short > 0 {
			debt += short
		}
	}
	return debt
}

// Program allocates a fresh physical page, programs it on the bus at time
// now, marks it Valid, and returns it with the completion time. GC runs
// first when the target plane is low on free blocks, so the program (and
// everything queued behind it on that chip) pays the GC cost — exactly the
// interference the paper's latency figures measure.
func (s *Store) Program(now ssd.Time) (ssd.PPN, ssd.Time, error) {
	return s.ProgramStream(now, 0)
}

// ProgramStream is Program targeting a specific host write stream: pages of
// different streams never share a block, so callers can separate hot and
// cold data. The stream index must be below StoreConfig.UserStreams (or 0
// for single-stream stores).
func (s *Store) ProgramStream(now ssd.Time, stream int) (ssd.PPN, ssd.Time, error) {
	if err := s.dieTick(now); err != nil {
		return ssd.InvalidPPN, 0, err
	}
	plane, err := s.nextPlane()
	if err != nil {
		return ssd.InvalidPPN, 0, err
	}
	maxStream := s.cfg.UserStreams
	if maxStream < 1 {
		maxStream = 1
	}
	if stream < 0 || stream >= maxStream {
		return ssd.InvalidPPN, 0, fmt.Errorf("ftl: stream %d outside [0,%d)", stream, maxStream)
	}
	// Background GC: when the plane is below the soft threshold, erase a
	// fully dead block, stamped at time 0 — the bus starts it the moment
	// the chip last went idle, so the erase lands in the arrival gap that
	// already passed instead of stalling a request at the hard threshold.
	// Only 100%-garbage victims qualify: collecting blocks that still hold
	// valid pages early forfeits the invalidation accumulation that makes
	// lazy greedy GC cheap (see BenchmarkAblationBackgroundGC for the
	// measured cliff when the gate is loosened).
	if s.cfg.SoftGCThreshold > 0 && len(s.planes[plane].freeBlocks) < s.cfg.SoftGCThreshold {
		collected, err := s.collectPlaneMin(plane, 0, int32(s.geo.PagesPerBlock))
		if err != nil {
			return ssd.InvalidPPN, 0, err
		}
		if collected {
			s.gc.Background++
		}
	}
	if err := s.ensureSpace(plane, now); err != nil {
		return ssd.InvalidPPN, 0, err
	}
	return s.programAt(plane, stream, now)
}

// nextPlane advances the channel-striped allocation rotation and returns
// the next living plane — shared by host programs and translation-page
// programs so both stripe across chips the same way.
func (s *Store) nextPlane() (int, error) {
	plane := s.planeOrder[s.cursor]
	s.cursor = (s.cursor + 1) % len(s.planeOrder)
	if s.deadPlane != nil && s.deadPlane[plane] {
		// A failed die's planes leave the allocation rotation; the write
		// lands on the next living plane.
		for i := 1; i < len(s.planeOrder) && s.deadPlane[plane]; i++ {
			plane = s.planeOrder[s.cursor]
			s.cursor = (s.cursor + 1) % len(s.planeOrder)
		}
		if s.deadPlane[plane] {
			return 0, fmt.Errorf("ftl: every plane dead: %w", ErrNoSpace)
		}
	}
	return plane, nil
}

// programAt allocates and programs one page on the plane's stream,
// re-landing the data on a fresh page after every injected program-status
// failure: the failed page is left behind as unrevivable garbage (it never
// reaches the dead-value pool), its block is marked suspect, and the retry
// pays full program latency after the failed attempt completes. On a
// fault-free drive this is exactly allocate + program.
func (s *Store) programAt(plane, stream int, now ssd.Time) (ssd.PPN, ssd.Time, error) {
	maxAttempts := 1
	if s.inj != nil {
		maxAttempts = s.inj.Config().MaxProgramAttempts
	}
	for attempt := 1; ; attempt++ {
		ppn, err := s.allocate(plane, stream)
		if err != nil {
			return ssd.InvalidPPN, 0, err
		}
		blk := s.geo.BlockOf(ppn)
		if s.crashNow() {
			// Power cut mid-program: the page is torn — unreadable data,
			// unreadable OOB — and the write was never acknowledged.
			s.setState(ppn, PageInvalid)
			s.blocks[blk].valid--
			s.blocks[blk].invalid++
			s.setOOB(ppn, OOB{State: OOBTorn})
			return ssd.InvalidPPN, 0, fmt.Errorf("ftl: program of page %d interrupted: %w", ppn, fault.ErrPowerLoss)
		}
		done := s.bus.Program(ppn, now)
		if s.inj == nil || !s.inj.ProgramFails(s.blocks[blk].erases) {
			if attempt > 1 {
				s.faults.Relocations++
			}
			if s.integ != nil {
				// A fresh program resets the page's decay clock.
				s.progTime[ppn] = done
			}
			s.clearLost(ppn)
			if s.rain != nil {
				if err := s.rainOnProgram(ppn, done); err != nil {
					return ssd.InvalidPPN, 0, err
				}
			}
			return ppn, done, nil
		}
		s.faults.ProgramFailures++
		s.setState(ppn, PageInvalid)
		s.blocks[blk].valid--
		s.blocks[blk].invalid++
		s.setOOB(ppn, OOB{State: OOBTorn}) // status-failed page: contents untrustworthy
		s.blocks[blk].progFails++
		if s.blocks[blk].progFails == 1 {
			s.faults.SuspectBlocks++
		}
		if attempt >= maxAttempts {
			return ssd.InvalidPPN, 0, fmt.Errorf("ftl: block %d after %d attempts: %w", blk, attempt, ErrProgramFault)
		}
		now = done
	}
}

// Read issues a host read of page p at time now. The error is non-nil when
// the armed power-loss trigger fires on this operation (the read returns
// nothing and no device state changes) or when the integrity model declares
// the read uncorrectable (ErrUncorrectable; the returned time is still the
// completion of the failed ECC ladder and the page's data is lost).
func (s *Store) Read(p ssd.PPN, now ssd.Time) (ssd.Time, error) {
	if err := s.dieTick(now); err != nil {
		return 0, err
	}
	if s.PageDead(p) {
		return s.readDead(p, now, now)
	}
	done, err := s.readPageAt(p, now, now, true)
	if err != nil && errors.Is(err, ErrUncorrectable) {
		// Host-path loss repairs itself when RAIN covers the page: read
		// the surviving members, XOR, re-land, rebind — the read succeeds
		// where it used to destroy data.
		if rdone, ok, rerr := s.tryReconstruct(p, done, now); rerr != nil {
			return 0, rerr
		} else if ok {
			return rdone, nil
		}
	}
	return done, err
}

// readPage issues one page read plus any injected ECC retries, each a full
// extra read operation on the chip.
func (s *Store) readPage(p ssd.PPN, now ssd.Time) (ssd.Time, error) {
	return s.readPageAt(p, now, now, false)
}

// readPageAt is readPage with the bus stamp and the decay clock split:
// host reads pass the same instant for both, while the scrubber stamps its
// patrol reads at time 0 — the bus then starts them the moment the chip
// last went idle — yet ages pages against the real current time. Only host
// reads (host true) may suspend an in-flight GC erase/program; GC, scrub
// and ECC-ladder reads queue normally.
func (s *Store) readPageAt(p ssd.PPN, stamp, clock ssd.Time, host bool) (ssd.Time, error) {
	if s.crashNow() {
		return 0, fmt.Errorf("ftl: read of page %d interrupted: %w", p, fault.ErrPowerLoss)
	}
	var done ssd.Time
	if host {
		done = s.bus.ReadHost(p, stamp)
	} else {
		done = s.bus.Read(p, stamp)
	}
	if s.inj != nil {
		erases := s.blocks[s.geo.BlockOf(p)].erases
		for r := 0; r < s.inj.Config().ReadRetries && s.inj.ReadFails(erases); r++ {
			s.faults.ReadRetries++
			if s.crashNow() {
				return 0, fmt.Errorf("ftl: read retry of page %d interrupted: %w", p, fault.ErrPowerLoss)
			}
			prev := s.Tel.EnterECC()
			done = s.bus.Read(p, done)
			s.Tel.ExitOrigin(prev)
		}
	}
	if s.integ != nil {
		return s.integrityCheck(p, done, clock)
	}
	return done, nil
}

// gcStream returns the frontier index GC relocations write to.
func (s *Store) gcStream(plane int) int {
	if s.cfg.SeparateGCStream {
		n := len(s.planes[plane].frontiers) - 1
		if s.cfg.DFTL.Enabled() {
			n-- // the last frontier belongs to the translation stream
		}
		return n
	}
	return 0
}

// transStream returns the frontier index translation pages program to.
// Only meaningful on a DFTL-enabled store, where it is always the last
// frontier.
func (s *Store) transStream(plane int) int {
	return len(s.planes[plane].frontiers) - 1
}

// isTransStream reports whether (plane, stream) is the translation
// frontier — the allocator marks blocks it rolls onto as translation
// blocks so the two GC streams never mix victims.
func (s *Store) isTransStream(plane, stream int) bool {
	return s.cfg.DFTL.Enabled() && stream == len(s.planes[plane].frontiers)-1
}

// allocate takes the next page of the stream's active block, rolling to a
// free block when the frontier fills. Under RAIN the frontier steps over
// parity slots — they stay PageFree until the stripe's parity is flushed
// onto them — so the loop may advance more than one page; without RAIN it
// runs exactly once.
func (s *Store) allocate(plane, stream int) (ssd.PPN, error) {
	pl := &s.planes[plane]
	fr := &pl.frontiers[stream]
	for {
		if fr.nextPage == s.geo.PagesPerBlock {
			if len(pl.freeBlocks) == 0 {
				return ssd.InvalidPPN, fmt.Errorf("plane %d: %w", plane, ErrNoSpace)
			}
			s.blocks[fr.active].active = false
			pick := len(pl.freeBlocks) - 1
			if s.cfg.WearAware {
				// Take the least-erased free block so erases spread evenly.
				for i, b := range pl.freeBlocks {
					if s.blocks[b].erases < s.blocks[pl.freeBlocks[pick]].erases {
						pick = i
					}
				}
			}
			next := pl.freeBlocks[pick]
			pl.freeBlocks[pick] = pl.freeBlocks[len(pl.freeBlocks)-1]
			pl.freeBlocks = pl.freeBlocks[:len(pl.freeBlocks)-1]
			s.blocks[next].free = false
			s.blocks[next].active = true
			if s.isTransStream(plane, stream) {
				s.blocks[next].trans = true
			}
			fr.active = next
			fr.nextPage = 0
		}
		ppn := s.geo.PageAt(fr.active, fr.nextPage)
		fr.nextPage++
		if s.rain != nil && s.rain.IsParity(ppn) {
			continue
		}
		if s.rain != nil && s.stripeUnprotectable(ppn) {
			// The stripe's fixed parity home is retired or dead: any data
			// landed here could never be covered, and the rebuild daemon
			// would just refresh it away again. Skip the page — a small
			// capacity shave on the blocks sharing offsets with a dead
			// parity home.
			continue
		}
		s.setState(ppn, PageValid)
		s.blocks[fr.active].valid++
		return ppn, nil
	}
}

// Invalidate turns a valid page into garbage (an update superseded it).
// A non-valid page is a state-machine inconsistency in the caller and
// reports ErrPageState with the store untouched.
func (s *Store) Invalidate(p ssd.PPN) error {
	if st := s.State(p); st != PageValid {
		return fmt.Errorf("%w: Invalidate(%d): page is %v, not valid", ErrPageState, p, st)
	}
	s.setState(p, PageInvalid)
	b := s.geo.BlockOf(p)
	s.blocks[b].valid--
	s.blocks[b].invalid++
	if s.rain != nil && s.blocks[b].dead && !s.rain.IsParity(p) {
		// Garbage on a failed die will never be erased or revived; drop it
		// from its stripe now, exactly as failDie drops the invalid pages
		// it finds at failure time.
		s.rain.NoteErased(p)
	}
	return nil
}

// Revalidate revives a garbage page: the dead-value pool matched an
// incoming write to it, so it becomes valid again with no flash
// operation. A non-garbage page is a state-machine inconsistency in the
// caller and reports ErrPageState with the store untouched.
func (s *Store) Revalidate(p ssd.PPN) error {
	if st := s.State(p); st != PageInvalid {
		return fmt.Errorf("%w: Revalidate(%d): page is %v, not invalid", ErrPageState, p, st)
	}
	s.setState(p, PageValid)
	b := s.geo.BlockOf(p)
	s.blocks[b].valid++
	s.blocks[b].invalid--
	s.ownRevived(int64(p))
	return nil
}

// ensureSpace runs GC on the plane until its free list reaches the
// threshold or no block yields free space.
func (s *Store) ensureSpace(plane int, now ssd.Time) error {
	for len(s.planes[plane].freeBlocks) < s.effThreshold {
		// A plane caught mid-drain finishes its head victim first: the
		// stall is bounded by the pages partial GC has not yet moved, and
		// the free-block floor is restored the same way a blocking cycle
		// would. A stalled drain (no relocation capacity for the head) falls
		// through to a normal cycle on a different victim.
		if len(s.drains[plane].queue) > 0 {
			finished, err := s.finishDrainHead(plane, now)
			if err != nil {
				return err
			}
			if finished {
				continue
			}
		}
		collected, err := s.collectPlane(plane, now)
		if err != nil {
			return err
		}
		if !collected {
			// Nothing reclaimable. Only fatal if allocation cannot proceed
			// at all; allocate reports that case.
			return nil
		}
	}
	return nil
}

// relocationCapacity returns how many valid pages the plane can absorb
// right now: the rest of the GC write frontier plus every free block.
func (s *Store) relocationCapacity(plane int) int32 {
	pl := &s.planes[plane]
	fr := &pl.frontiers[s.gcStream(plane)]
	c := int32(s.geo.PagesPerBlock-fr.nextPage) + int32(s.geo.PagesPerBlock*len(pl.freeBlocks))
	if s.rain != nil {
		// Parity slots cannot absorb relocated data; scale the estimate
		// down by the stripe's data fraction so admitted victims always fit.
		w := int32(s.rain.Width())
		c = c * (w - 1) / w
	}
	return c
}

// victim selects the GC victim for a plane, or InvalidBlock when no
// non-active, non-free block has any invalid page (or none fits the
// plane's relocation capacity). Candidates are ranked by victimScore.
//
// The scan prunes exactly: a candidate whose victimBound cannot beat the
// best score so far is skipped before its pages are scored. Only a
// strictly higher score replaces the best, so the skipped block could not
// have won, and the victim — lowest index among equal scores — is the one
// a full scan picks.
func (s *Store) victim(plane int) ssd.BlockID {
	best := ssd.InvalidBlock
	bestScore := math.Inf(-1)
	capacity := s.relocationCapacity(plane)
	for i := 0; i < s.geo.BlocksPerPlane; i++ {
		b := s.geo.BlockAt(plane, i)
		info := &s.blocks[b]
		if info.free || info.active || info.bad || info.dead || info.draining ||
			info.trans || info.invalid == 0 || info.valid > capacity {
			continue
		}
		if s.victimBound(info) <= bestScore {
			continue
		}
		score := s.victimScore(b)
		if score > bestScore {
			bestScore = score
			best = b
		}
	}
	return best
}

// victimScore ranks GC victim candidates. The base is the classic greedy
// most-invalid count; with a Scorer and a positive PopularityWeight it is
// reduced by the popularity of the block's pooled garbage (likely to be
// revived soon, Section IV-D); with a positive FaultPenaltyWeight it is
// reduced by the block's accumulated program-status failures so relocation
// lands on trustworthy flash. DrainSuspects overrides the penalty for
// blocks already doomed to retire at their next erase: those get a bonus of
// one whole block's worth of greed, so they are drained — and their
// capacity loss taken — promptly instead of festering. Every extra term is
// guarded, so the zero configuration scores bit-identically to greedy.
func (s *Store) victimScore(b ssd.BlockID) float64 {
	info := &s.blocks[b]
	score := float64(info.invalid)
	if s.Scorer != nil && s.cfg.PopularityWeight > 0 {
		score -= s.cfg.PopularityWeight * float64(s.garbagePopularitySum(b))
	}
	if info.progFails > 0 {
		switch {
		case s.drainsSuspect(info):
			score += float64(s.geo.PagesPerBlock)
		case s.cfg.FaultPenaltyWeight > 0:
			score -= s.cfg.FaultPenaltyWeight * float64(info.progFails)
		}
	}
	return score
}

// drainsSuspect reports whether DrainSuspects gives the block its bonus.
func (s *Store) drainsSuspect(info *blockInfo) bool {
	return s.cfg.DrainSuspects && s.cfg.Faults.SuspectThreshold > 0 &&
		int(info.progFails) >= s.cfg.Faults.SuspectThreshold
}

// victimBound is an upper bound on victimScore, computed without touching
// the block's pages: the invalid count plus the drain bonus when it
// applies. The popularity and fault terms only subtract (both weights are
// validated ≥ 0), and rounding is monotonic, so victimScore never exceeds
// the bound.
func (s *Store) victimBound(info *blockInfo) float64 {
	bound := float64(info.invalid)
	if s.drainsSuspect(info) {
		bound += float64(s.geo.PagesPerBlock)
	}
	return bound
}

// garbagePopularitySum is the paper's popularity-aware victim metric: the
// sum of popularity degrees of this block's pooled garbage pages.
func (s *Store) garbagePopularitySum(b ssd.BlockID) int64 {
	var sum int64
	first := s.geo.FirstPage(b)
	for i := 0; i < s.geo.PagesPerBlock; i++ {
		p := first + ssd.PPN(i)
		if s.State(p) != PageInvalid {
			continue
		}
		if pop, ok := s.Scorer.GarbagePopularity(p); ok {
			sum += int64(pop)
		}
	}
	return sum
}

// collectPlane runs one GC cycle on the plane: pick a victim, relocate its
// valid pages into the write frontier, notify the pool about destroyed
// garbage, erase, and return the block to the free list. Reports whether a
// block was reclaimed (a retired victim still counts: its pages were
// consumed even though the block left service). The error is non-nil only
// under fault injection, when a relocation burned every program attempt.
func (s *Store) collectPlane(plane int, now ssd.Time) (bool, error) {
	return s.collectPlaneMin(plane, now, 1)
}

// collectPlaneMin is collectPlane with a victim profitability floor: blocks
// with fewer than minInvalid garbage pages are not collected. On a
// DFTL-enabled store the data and translation streams compete for the
// cycle: whichever eligible victim scores higher is collected, so
// translation garbage cannot pile up unreclaimed behind data GC (Dayan &
// Bonnet's second stream).
func (s *Store) collectPlaneMin(plane int, now ssd.Time, minInvalid int32) (bool, error) {
	v := s.victim(plane)
	if s.cmt != nil {
		tv := s.victimTrans(plane)
		if tv != ssd.InvalidBlock && s.blocks[tv].invalid >= minInvalid &&
			(v == ssd.InvalidBlock || s.victimScore(tv) > s.victimScore(v)) {
			return s.collectTransPlane(plane, tv, now)
		}
	}
	if v == ssd.InvalidBlock || s.blocks[v].invalid < minInvalid {
		return false, nil
	}
	s.gc.Runs++
	prevOrigin := s.Tel.EnterOrigin(telemetry.OriginGC)
	defer s.Tel.ExitOrigin(prevOrigin)
	s.bus.SuspendScope(true)
	defer s.bus.SuspendScope(false)
	relocBefore := s.gc.Relocated
	first := s.geo.FirstPage(v)
	for i := 0; i < s.geo.PagesPerBlock; i++ {
		p := first + ssd.PPN(i)
		switch s.State(p) {
		case PageValid:
			readDone, err := s.readPage(p, now)
			if err != nil && !errors.Is(err, ErrUncorrectable) {
				// Power cut mid-relocation read: the source page is intact
				// and still mapped; nothing is torn.
				return false, fmt.Errorf("ftl: GC relocation read of page %d: %w", p, err)
			}
			// An uncorrectable relocation read cannot abort GC — the block
			// must still be reclaimed — so the copy proceeds with garbled
			// data and the loss mark travels to the destination below; the
			// damage surfaces when the host next reads the logical page.
			wasLost := err != nil
			dst, _, err := s.programAt(plane, s.gcStream(plane), readDone)
			if err != nil && errors.Is(err, ErrProgramFault) {
				dst, _, err = s.relandGC(plane, readDone)
			}
			if err != nil {
				return false, fmt.Errorf("ftl: GC relocation of page %d: %w", p, err)
			}
			if wasLost {
				s.markLost(dst)
				s.clearLost(p)
			}
			s.gc.Relocated++
			// Stamp before OnRelocate: the owner must be read while the
			// mapping still points at the source page.
			s.stampRelocated(p, dst)
			if s.OnRelocate != nil {
				s.OnRelocate(p, dst)
			}
		case PageInvalid:
			if s.OnEraseGarbage != nil {
				s.OnEraseGarbage(p)
			}
		}
		s.setState(p, PageFree)
	}
	return s.eraseVictim(plane, v, now, s.gc.Relocated-relocBefore)
}

// relandGC recovers a GC relocation whose program burned every allowed
// attempt inside the current GC frontier block: the frontier is forced
// onto a fresh free block and the relocation retried there, so one bad
// block cannot abort garbage collection. The abandoned block is retired
// on the spot when the failure storm left it with no live data; otherwise
// it keeps its suspect marks and retires at its next erase.
func (s *Store) relandGC(plane int, stamp ssd.Time) (ssd.PPN, ssd.Time, error) {
	return s.relandStream(plane, s.gcStream(plane), stamp)
}

// relandStream is relandGC generalized over the write stream, so the
// translation-GC relocation path recovers from program-fault storms the
// same way the data path does.
func (s *Store) relandStream(plane, stream int, stamp ssd.Time) (ssd.PPN, ssd.Time, error) {
	pl := &s.planes[plane]
	if len(pl.freeBlocks) == 0 {
		return ssd.InvalidPPN, 0, fmt.Errorf("ftl: GC re-land on plane %d: %w", plane, ErrNoSpace)
	}
	fr := &pl.frontiers[stream]
	bad := fr.active
	info := &s.blocks[bad]
	if info.active && info.valid == 0 {
		// Every program in the block failed (or its pages died since);
		// retire it now rather than let it poison another relocation. The
		// same cleanup the erase path performs applies: pooled garbage is
		// evicted and the OOB scrubbed, so neither revival nor recovery
		// ever touches the retired block again.
		first := s.geo.FirstPage(bad)
		for i := 0; i < s.geo.PagesPerBlock; i++ {
			p := first + ssd.PPN(i)
			if s.State(p) == PageInvalid && s.OnEraseGarbage != nil {
				s.OnEraseGarbage(p)
			}
			s.setState(p, PageFree)
			s.setOOB(p, OOB{})
			s.clearLost(p)
		}
		info.valid, info.invalid = 0, 0
		info.active = false
		info.bad = true
		s.faults.RetiredBlocks++
		if err := s.rainAfterErase(bad, stamp); err != nil {
			return ssd.InvalidPPN, 0, err
		}
	}
	// Force the next allocation to roll the frontier to a fresh block.
	fr.nextPage = s.geo.PagesPerBlock
	s.faults.GCRelands++
	return s.programAt(plane, stream, stamp)
}

// eraseVictim is the erase tail every GC path shares — blocking cycles and
// partial drains alike: stamp the erase (or tear the whole block on a
// power cut), clear the OOB and integrity marks, and either retire the
// block or return it to the plane's free list. Reports whether a block was
// reclaimed (a retired victim still counts: its pages were consumed even
// though the block left service).
func (s *Store) eraseVictim(plane int, v ssd.BlockID, now ssd.Time, relocated int64) (bool, error) {
	// GC-produced mapping rebindings must reach flash translation pages
	// before the erase completes the cycle; a disabled (or pending-free)
	// store skips this in one branch.
	if err := s.flushMapUpdates(now); err != nil {
		return false, err
	}
	first := s.geo.FirstPage(v)
	if s.crashNow() {
		// Power cut mid-erase: the whole block is torn — neither erased
		// nor readable. Every relocated page already landed elsewhere, so
		// the block holds only unrevivable garbage until GC retries.
		info := &s.blocks[v]
		info.valid = 0
		info.invalid = int32(s.geo.PagesPerBlock)
		for i := 0; i < s.geo.PagesPerBlock; i++ {
			p := first + ssd.PPN(i)
			s.setState(p, PageInvalid)
			s.setOOB(p, OOB{State: OOBTorn})
		}
		return false, fmt.Errorf("ftl: erase of block %d interrupted: %w", v, fault.ErrPowerLoss)
	}
	eraseDone := s.bus.Erase(v, now)
	if s.Tel.On() {
		s.Tel.EmitSpan(telemetry.OriginGC, "gc cycle", now, eraseDone, map[string]any{
			"plane":     plane,
			"block":     int64(v),
			"relocated": relocated,
		})
	}
	// The erase destroys page contents and OOB alike; even a failed erase
	// leaves nothing recovery may resurrect.
	for i := 0; i < s.geo.PagesPerBlock; i++ {
		s.setOOB(first+ssd.PPN(i), OOB{})
		s.clearLost(first + ssd.PPN(i))
	}
	info := &s.blocks[v]
	info.valid = 0
	info.invalid = 0
	info.erases++
	info.reads = 0  // read disturb is reset by the erase
	if info.trans { // an erased translation block rejoins the general pool
		info.trans = false
		if s.cmt != nil {
			s.cmt.Stat.TransErased++
		}
	}
	eraseFailed := s.inj != nil && s.inj.EraseFails(info.erases)
	if eraseFailed {
		s.faults.EraseFailures++
	}
	suspectRetire := s.inj != nil && s.cfg.Faults.SuspectThreshold > 0 &&
		int(info.progFails) >= s.cfg.Faults.SuspectThreshold
	if eraseFailed || suspectRetire {
		// Retire the block: it never rejoins the free pool and the victim
		// scan skips it forever, so the plane is permanently smaller.
		info.bad = true
		info.free = false
		s.faults.RetiredBlocks++
		if err := s.rainAfterErase(v, now); err != nil {
			return false, err
		}
		return true, nil
	}
	info.free = true
	s.gc.Erased++
	s.planes[plane].freeBlocks = append(s.planes[plane].freeBlocks, v)
	if err := s.rainAfterErase(v, now); err != nil {
		return false, err
	}
	return true, nil
}

// WearSummary reports erase-count dispersion across blocks, for the
// lifetime analyses.
type WearSummary struct {
	MinErases, MaxErases int32
	TotalErases          int64
}

// Wear returns the drive's wear summary.
func (s *Store) Wear() WearSummary {
	var w WearSummary
	if len(s.blocks) == 0 {
		return w
	}
	w.MinErases = s.blocks[0].erases
	for i := range s.blocks {
		e := s.blocks[i].erases
		if e < w.MinErases {
			w.MinErases = e
		}
		if e > w.MaxErases {
			w.MaxErases = e
		}
		w.TotalErases += int64(e)
	}
	return w
}
