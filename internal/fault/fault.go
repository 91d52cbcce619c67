// Package fault is the reliability model of the simulated flash: a
// deterministic, seedable plan of ONFI-realistic failures that the FTL
// consults on every program, erase and read. Three failure classes are
// modeled, mirroring what a real controller sees in the status register:
//
//   - program-status failures: the program completed but the status read
//     reports failure; the page contents are untrustworthy, the data must
//     re-land on a fresh page and the block becomes suspect;
//   - erase failures: the block cannot be erased and is retired as bad,
//     permanently shrinking its plane's free pool;
//   - read failures: the raw read exceeds ECC capability and the controller
//     must retry with adjusted thresholds, costing extra read latency.
//
// Failure probabilities optionally scale with a block's erase count
// (Config.WearFactor), so wear-out emerges over the run: young blocks
// almost never fail, cycled ones fail increasingly often.
//
// All randomness comes from a splitmix64 stream seeded by Config.Seed, so
// two runs with the same plan and the same request stream inject byte-for-
// byte identical faults regardless of host, Go version or scheduling. The
// zero Config disables injection entirely; the FTL then performs no draws
// and behaves exactly as a fault-free drive.
package fault

import (
	"errors"
	"fmt"
	"math"
)

// ErrPowerLoss is wrapped by FTL operations interrupted by the plan's
// sudden-power-loss trigger (Config.CrashAtOp). The in-flight operation is
// torn: a mid-write or mid-relocation program leaves an unreadable page, a
// mid-erase leaves the whole block unreadable, and nothing after the crash
// point was acknowledged to the host. Recovery (internal/recovery) rebuilds
// the drive from OOB metadata.
var ErrPowerLoss = errors.New("fault: sudden power loss")

// Defaults applied by Config.WithDefaults when the corresponding field is
// zero and the failure class is enabled.
const (
	// DefaultReadRetries bounds the ECC retry reads issued per failing
	// page read.
	DefaultReadRetries = 3
	// DefaultMaxProgramAttempts bounds how many pages one logical program
	// may burn before the FTL gives up with ErrProgramFault (ftl package).
	DefaultMaxProgramAttempts = 8
)

// Config is the fault plan of one simulated drive. The zero value disables
// every failure class. Probabilities are per operation, before wear
// scaling.
type Config struct {
	// Seed selects the deterministic fault stream. Two devices with equal
	// plans and seeds, driven by the same request sequence, fail
	// identically. Seed 0 is a valid stream (it does not mean "random").
	Seed int64

	// ProgramFailProb is the probability a page program reports a
	// program-status failure.
	ProgramFailProb float64
	// EraseFailProb is the probability a block erase fails, retiring the
	// block as bad.
	EraseFailProb float64
	// ReadFailProb is the probability a page read needs an ECC retry.
	// Every retry is drawn again, so one read can need several.
	ReadFailProb float64

	// ReadRetries bounds the ECC retry reads per failing page read;
	// 0 means DefaultReadRetries when ReadFailProb > 0.
	ReadRetries int
	// MaxProgramAttempts bounds the pages one logical program may try
	// (first attempt + retries) before the FTL reports ErrProgramFault;
	// 0 means DefaultMaxProgramAttempts.
	MaxProgramAttempts int

	// WearFactor scales failure probabilities with block wear: the
	// effective probability is base × (1 + WearFactor × eraseCount),
	// clamped to 1. 0 keeps failures independent of wear.
	WearFactor float64

	// SuspectThreshold retires a block at its next (successful) erase once
	// it has accumulated this many program-status failures — the
	// controller policy of not trusting a block that keeps failing
	// programs. 0 never retires on suspicion alone.
	SuspectThreshold int

	// CrashAtOp arms the sudden-power-loss trigger: power is cut during
	// the Nth flash operation (1-based, counting every read, program and
	// erase the store issues over the device's whole life, preconditioning
	// included). The interrupted operation's page — or, for an erase, its
	// whole block — is torn, and the FTL surfaces ErrPowerLoss. The
	// trigger fires once; after recovery the drive runs on. 0 never
	// crashes and is bit-identical to a plan without the field.
	CrashAtOp int64

	// Integrity arms the stateful RBER accumulation model (retention,
	// read disturb, wear → correctable / uncorrectable reads). The zero
	// value disarms it; see integrity.go.
	Integrity IntegrityConfig

	// DieFailAtOp arms whole-die failure: during the Nth host operation
	// (1-based, counting every host read and write the store serves,
	// preconditioning included) one entire die stops responding — all of
	// its blocks retire at once, their valid pages become unreadable, and
	// only RAIN parity (internal/rain) can bring the data back. The
	// trigger fires once. 0 never fails a die and is bit-identical to a
	// plan without the field.
	DieFailAtOp int64

	// DieFailDie selects which die DieFailAtOp kills: a flat die index in
	// channel → chip → die order, validated against the geometry when the
	// store is built. Ignored while DieFailAtOp is 0.
	DieFailDie int
}

// Enabled reports whether the plan injects any probabilistic faults. The
// crash trigger is deliberately excluded: it needs no random stream, and
// the FTL arms it directly from the config.
func (c Config) Enabled() bool {
	return c.ProgramFailProb > 0 || c.EraseFailProb > 0 || c.ReadFailProb > 0
}

// IntegrityArmed reports whether the stateful RBER model accumulates
// errors. Like the crash trigger it is excluded from Enabled: the
// Estimator draws from its own stream and the FTL arms it directly.
func (c Config) IntegrityArmed() bool { return c.Integrity.Armed() }

// Active reports whether the plan perturbs the drive at all: probabilistic
// faults, the crash trigger, die failure, or the integrity model.
func (c Config) Active() bool {
	return c.Enabled() || c.CrashAtOp > 0 || c.DieFailAtOp > 0 || c.IntegrityArmed()
}

// Validate reports whether the plan is usable. NaN and infinite values are
// rejected explicitly: NaN compares false against every bound, so without
// these checks a NaN probability would slip through and poison every draw.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ProgramFailProb", c.ProgramFailProb},
		{"EraseFailProb", c.EraseFailProb},
		{"ReadFailProb", c.ReadFailProb},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s must be in [0,1], got %g", p.name, p.v)
		}
	}
	if c.ReadRetries < 0 {
		return fmt.Errorf("fault: ReadRetries must be ≥ 0, got %d", c.ReadRetries)
	}
	if c.MaxProgramAttempts < 0 {
		return fmt.Errorf("fault: MaxProgramAttempts must be ≥ 0, got %d", c.MaxProgramAttempts)
	}
	if math.IsNaN(c.WearFactor) || math.IsInf(c.WearFactor, 0) || c.WearFactor < 0 {
		return fmt.Errorf("fault: WearFactor must be finite and ≥ 0, got %g", c.WearFactor)
	}
	if c.SuspectThreshold < 0 {
		return fmt.Errorf("fault: SuspectThreshold must be ≥ 0, got %d", c.SuspectThreshold)
	}
	if c.CrashAtOp < 0 {
		return fmt.Errorf("fault: CrashAtOp must be ≥ 0, got %d", c.CrashAtOp)
	}
	if c.DieFailAtOp < 0 {
		return fmt.Errorf("fault: DieFailAtOp must be ≥ 0, got %d", c.DieFailAtOp)
	}
	if c.DieFailDie < 0 {
		return fmt.Errorf("fault: DieFailDie must be ≥ 0, got %d", c.DieFailDie)
	}
	return c.Integrity.Validate()
}

// WithDefaults returns c with the retry bounds filled in where zero. The
// integrity model additionally fills its ECC boundaries when armed — the
// uncorrectable path charges the full ECC retry ladder, so ReadRetries is
// defaulted for it too.
func (c Config) WithDefaults() Config {
	if c.ReadRetries == 0 && (c.ReadFailProb > 0 || c.IntegrityArmed()) {
		c.ReadRetries = DefaultReadRetries
	}
	if c.MaxProgramAttempts == 0 {
		c.MaxProgramAttempts = DefaultMaxProgramAttempts
	}
	c.Integrity = c.Integrity.WithDefaults()
	return c
}

// Stats counts every fault injected and every recovery action the FTL took.
type Stats struct {
	ProgramFailures int64 // program-status failures reported
	EraseFailures   int64 // erases that failed outright
	ReadRetries     int64 // extra ECC retry reads issued
	RetiredBlocks   int64 // blocks retired as bad (erase failure or suspicion)
	SuspectBlocks   int64 // blocks first marked suspect by a program failure
	Relocations     int64 // programs re-landed on a fresh page after a failure
	GCRelands       int64 // GC relocations re-landed on a fresh block after exhausting one
	DieFailures     int64 // whole dies killed by the DieFailAtOp trigger

	// Integrity-model outcomes (zero while the model is disarmed).
	CorrectableReads   int64 // reads that needed a threshold-shifted retry
	UncorrectableReads int64 // reads that exceeded ECC capability (page data lost)
	RefreshWrites      int64 // pages refresh-relocated by the scrubber
	RevivalsDeclined   int64 // zombie revivals refused on estimated RBER or UECC
}

// Any reports whether any fault activity was recorded.
func (s Stats) Any() bool { return s != Stats{} }

// Sub returns s minus prev, field-wise.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		ProgramFailures: s.ProgramFailures - prev.ProgramFailures,
		EraseFailures:   s.EraseFailures - prev.EraseFailures,
		ReadRetries:     s.ReadRetries - prev.ReadRetries,
		RetiredBlocks:   s.RetiredBlocks - prev.RetiredBlocks,
		SuspectBlocks:   s.SuspectBlocks - prev.SuspectBlocks,
		Relocations:     s.Relocations - prev.Relocations,
		GCRelands:       s.GCRelands - prev.GCRelands,
		DieFailures:     s.DieFailures - prev.DieFailures,

		CorrectableReads:   s.CorrectableReads - prev.CorrectableReads,
		UncorrectableReads: s.UncorrectableReads - prev.UncorrectableReads,
		RefreshWrites:      s.RefreshWrites - prev.RefreshWrites,
		RevivalsDeclined:   s.RevivalsDeclined - prev.RevivalsDeclined,
	}
}

// Add returns s plus d, field-wise.
func (s Stats) Add(d Stats) Stats {
	return Stats{
		ProgramFailures: s.ProgramFailures + d.ProgramFailures,
		EraseFailures:   s.EraseFailures + d.EraseFailures,
		ReadRetries:     s.ReadRetries + d.ReadRetries,
		RetiredBlocks:   s.RetiredBlocks + d.RetiredBlocks,
		SuspectBlocks:   s.SuspectBlocks + d.SuspectBlocks,
		Relocations:     s.Relocations + d.Relocations,
		GCRelands:       s.GCRelands + d.GCRelands,
		DieFailures:     s.DieFailures + d.DieFailures,

		CorrectableReads:   s.CorrectableReads + d.CorrectableReads,
		UncorrectableReads: s.UncorrectableReads + d.UncorrectableReads,
		RefreshWrites:      s.RefreshWrites + d.RefreshWrites,
		RevivalsDeclined:   s.RevivalsDeclined + d.RevivalsDeclined,
	}
}

// Injector draws fault decisions from the plan's deterministic stream. It
// is purely a decision-maker: it owns no FTL state and keeps no counters —
// the FTL records the recovery actions it takes. Injector is not safe for
// concurrent use; each simulated device owns one, matching the simulator's
// single-goroutine device contract.
type Injector struct {
	cfg   Config
	state uint64
}

// New returns an Injector for the plan, or nil when the plan injects
// nothing — callers treat a nil Injector as a perfect drive.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.WithDefaults()
	// Seed the splitmix64 state; the golden-ratio offset keeps seed 0 a
	// productive stream.
	return &Injector{cfg: cfg, state: uint64(cfg.Seed) + 0x9e3779b97f4a7c15}
}

// Config returns the plan (with defaults applied) the injector draws from.
func (in *Injector) Config() Config { return in.cfg }

// next64 advances the splitmix64 stream.
func (in *Injector) next64() uint64 {
	in.state += 0x9e3779b97f4a7c15
	z := in.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// draw returns a uniform float64 in [0, 1).
func (in *Injector) draw() float64 {
	return float64(in.next64()>>11) / (1 << 53)
}

// effective scales a base probability by block wear, clamped to 1.
func (in *Injector) effective(base float64, eraseCount int32) float64 {
	p := base * (1 + in.cfg.WearFactor*float64(eraseCount))
	if p > 1 {
		return 1
	}
	return p
}

// decide draws once against the wear-scaled probability. Classes with a
// zero base probability never draw, so enabling one class does not perturb
// another's stream alignment across configurations.
func (in *Injector) decide(base float64, eraseCount int32) bool {
	if base <= 0 {
		return false
	}
	return in.draw() < in.effective(base, eraseCount)
}

// ProgramFails reports whether a program on a block with the given erase
// count reports a program-status failure.
func (in *Injector) ProgramFails(eraseCount int32) bool {
	return in.decide(in.cfg.ProgramFailProb, eraseCount)
}

// EraseFails reports whether an erase of a block with the given erase count
// fails, retiring the block.
func (in *Injector) EraseFails(eraseCount int32) bool {
	return in.decide(in.cfg.EraseFailProb, eraseCount)
}

// ReadFails reports whether a read of a page in a block with the given
// erase count needs an ECC retry. Callers draw again per retry.
func (in *Injector) ReadFails(eraseCount int32) bool {
	return in.decide(in.cfg.ReadFailProb, eraseCount)
}
