package sim

import (
	"errors"
	"fmt"
	"sort"

	"zombiessd/internal/fault"
	"zombiessd/internal/ftl"
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
