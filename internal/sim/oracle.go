package sim

import (
	"errors"
	"fmt"
	"sort"

	"zombiessd/internal/fault"
	"zombiessd/internal/ftl"
	"zombiessd/internal/recovery"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
)

// InterruptedWrite marks a host write whose flash update was cut short by
// the power-loss trigger. LPN identifies the in-flight page so the oracle
// can apply its torn-write exemption; Unwrap exposes fault.ErrPowerLoss.
type InterruptedWrite struct {
	LPN ftl.LPN
	Err error
}

func (e *InterruptedWrite) Error() string {
	return fmt.Sprintf("sim: write of LPN %d interrupted: %v", e.LPN, e.Err)
}

func (e *InterruptedWrite) Unwrap() error { return e.Err }

// wrapInterrupted tags power-loss errors escaping a host write with the
// in-flight LPN; other errors pass through untouched.
func wrapInterrupted(lpn ftl.LPN, err error) error {
	if errors.Is(err, fault.ErrPowerLoss) {
		return &InterruptedWrite{LPN: lpn, Err: err}
	}
	return err
}

// Shadow is the crash-consistency oracle's ground truth: the last content
// durably acknowledged for every logical page. For unbuffered devices a
// successful Write is durable (its OOB stamp or journal record lands
// before the acknowledgement); for buffered devices only pages flushed to
// the inner device count — RAM-acknowledged writes are volatile by design
// and may legitimately vanish in a crash.
type Shadow struct {
	durable map[ftl.LPN]trace.Hash
	// latest is the newest host-acknowledged content per page, durable or
	// not. A buffered device may legitimately return it instead of the
	// durable version — newer-than-durable is fine, older is a violation.
	latest map[ftl.LPN]trace.Hash
}

// NewShadow returns an empty shadow store.
func NewShadow() *Shadow {
	return &Shadow{
		durable: make(map[ftl.LPN]trace.Hash),
		latest:  make(map[ftl.LPN]trace.Hash),
	}
}

// Ack records that content h at lpn has been durably acknowledged.
func (s *Shadow) Ack(lpn ftl.LPN, h trace.Hash) { s.durable[lpn] = h }

// Observe records a host-level write acknowledgement, durable or not; the
// replay loop calls it for every successful write so Verify can accept a
// buffered page that is newer than its durable version.
func (s *Shadow) Observe(lpn ftl.LPN, h trace.Hash) { s.latest[lpn] = h }

// Exempt removes lpn from verification. The replay loop calls it for the
// one page whose flash update was in flight when power failed: flash gives
// no atomicity guarantee for the page under write (its previous copy may
// already have been reclaimed before the replacement landed), matching the
// per-page torn-write exclusion real drives document.
func (s *Shadow) Exempt(lpn ftl.LPN) { delete(s.durable, lpn) }

// Len returns the number of pages under verification.
func (s *Shadow) Len() int { return len(s.durable) }

// Violation is one integrity failure: a durably acknowledged page that
// reads back wrong (stale or torn) or not at all (lost).
type Violation struct {
	LPN  ftl.LPN
	Want trace.Hash
	Got  trace.Hash
	Lost bool // acknowledged but unreadable after recovery
}

// String renders the violation for reports.
func (v Violation) String() string {
	if v.Lost {
		return fmt.Sprintf("LPN %d: acknowledged write lost", v.LPN)
	}
	return fmt.Sprintf("LPN %d: read %x, want acknowledged %x", v.LPN, v.Got[:4], v.Want[:4])
}

// Verify checks every durably acknowledged page against the device and
// returns the violations, LPN-ascending. A correct device returns none:
// each page must read back its last durably acknowledged content (or, for
// a page still dirty in a volatile buffer, the newer host-acknowledged
// content). Anything else — older, torn, or unreadable — is a violation.
func (s *Shadow) Verify(dev HashReader) []Violation {
	lpns := make([]ftl.LPN, 0, len(s.durable))
	for l := range s.durable {
		lpns = append(lpns, l)
	}
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	var out []Violation
	for _, l := range lpns {
		want := s.durable[l]
		got, ok := dev.ReadHash(l)
		switch {
		case !ok:
			out = append(out, Violation{LPN: l, Want: want, Lost: true})
		case got != want && got != s.latest[l]:
			out = append(out, Violation{LPN: l, Want: want, Got: got})
		}
	}
	return out
}

// AttachShadow wires a fresh shadow store to dev and reports whether the
// caller must Ack successful writes itself. True for unbuffered devices
// (write acknowledgement is durable); false for buffered devices, where
// the flush hook acks pages as they durably reach flash.
func AttachShadow(dev Device) (*Shadow, bool) {
	sh := NewShadow()
	// The maintenance pass adds no durability semantics; look beneath it
	// for the buffered layer.
	if md, ok := dev.(*maintDevice); ok {
		dev = md.inner
	}
	if bd, ok := dev.(*bufferedDevice); ok {
		bd.SetFlushHook(sh.Ack)
		return sh, false
	}
	return sh, true
}

// Checked replays a trace against one device under the integrity oracle.
// It is the one loop every oracle-verified run goes through: the crash,
// scrub, RAIN and chaos sweeps, ssdsim's -crash-at mode and the recovery
// tests. Each accepted write is recorded in a shadow store, so Verify can
// check every durably acknowledged page at any point. The caller keeps
// its own error policy — which errors end the run, which are a crash to
// Recover from, and which are shed writes to skip.
type Checked struct {
	// Shift maps trace time onto the device clock: a record submits at
	// Shift + rec.Time. After Precondition it is the fill's last
	// completion plus 1 ms, as in sim.Run; on an unfilled device, 1 ms.
	Shift ssd.Time
	// End is the latest completion the replay has seen, fill included.
	End ssd.Time

	dev     Device
	hr      HashReader
	shadow  *Shadow
	ack     bool
	logical int64
}

// NewChecked attaches a fresh shadow store to dev, which must expose
// ReadHash, for a replay over logical pages [0, logicalPages).
func NewChecked(dev Device, logicalPages int64) (*Checked, error) {
	hr, ok := dev.(HashReader)
	if !ok {
		return nil, fmt.Errorf("sim: device %T lacks ReadHash; cannot verify", dev)
	}
	sh, ack := AttachShadow(dev)
	return &Checked{Shift: ssd.Millisecond, dev: dev, hr: hr, shadow: sh, ack: ack, logical: logicalPages}, nil
}

// Precondition fills every logical page with PreconditionHash content at
// time 0, in LPN order — the same fill as RunTenants — and moves Shift
// past it.
func (c *Checked) Precondition() error {
	for lpn := int64(0); lpn < c.logical; lpn++ {
		h := PreconditionHash(lpn)
		done, err := c.dev.Write(lpnOf(lpn), h, 0)
		if err != nil {
			return fmt.Errorf("sim: precondition write %d: %w", lpn, err)
		}
		c.record(lpnOf(lpn), h, done)
	}
	c.Shift = c.End + ssd.Millisecond
	return nil
}

// Do submits rec at Shift + rec.Time and returns its completion time. An
// accepted write enters the shadow store; a device error is returned
// untouched for the caller's policy. A record outside the logical space
// or with an unknown op is rejected before it reaches the device.
func (c *Checked) Do(rec trace.Record) (ssd.Time, error) {
	if rec.LBA >= uint64(c.logical) {
		return 0, fmt.Errorf("sim: LBA %d outside logical space %d", rec.LBA, c.logical)
	}
	lpn := lpnOf(int64(rec.LBA))
	at := c.Shift + ssd.Time(rec.Time)
	switch rec.Op {
	case trace.OpWrite:
		done, err := c.dev.Write(lpn, rec.Hash, at)
		if err != nil {
			return done, err
		}
		c.record(lpn, rec.Hash, done)
		return done, nil
	case trace.OpRead:
		done, err := c.dev.Read(lpn, at)
		if err == nil && done > c.End {
			c.End = done
		}
		return done, err
	default:
		return 0, fmt.Errorf("sim: unknown op %v", rec.Op)
	}
}

// record enters an accepted write into the shadow store.
func (c *Checked) record(lpn ftl.LPN, h trace.Hash, done ssd.Time) {
	c.shadow.Observe(lpn, h)
	if c.ack {
		c.shadow.Ack(lpn, h)
	}
	if done > c.End {
		c.End = done
	}
}

// Recover handles the power loss cut: the page under write when power
// failed has no atomicity guarantee (flash's torn-write exclusion), so it
// leaves verification; then the device rebuilds from its durable state.
func (c *Checked) Recover(cut error, opts RecoverOptions) (recovery.Report, error) {
	var iw *InterruptedWrite
	if errors.As(cut, &iw) {
		c.shadow.Exempt(iw.LPN)
	}
	return Recover(c.dev, opts)
}

// Verify checks every durably acknowledged page against the device.
func (c *Checked) Verify() []Violation { return c.shadow.Verify(c.hr) }

// Pages returns the number of pages under verification.
func (c *Checked) Pages() int { return c.shadow.Len() }
