package telemetry

import (
	"fmt"

	"zombiessd/internal/ssd"
)

// Track pids of the emitted timeline. Perfetto groups events by (pid, tid):
// host requests get one track per op kind, flash chips one track each, and
// the background daemons (GC, scrub, recovery) one track each.
const (
	PidHost    = 0
	PidFlash   = 1
	PidDaemons = 2
)

// Daemon track tids under PidDaemons.
const (
	TidGC       = 0
	TidScrub    = 1
	TidRecovery = 2
)

// Event is one Chrome trace-event (the JSON array format Perfetto and
// chrome://tracing consume). Only complete events ("X") and metadata
// events ("M") are emitted.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"` // microseconds (simulated time)
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer retains the most recent flash-op, request and span events in a
// bounded ring, so tracing a long run holds memory constant: when the ring
// fills, the oldest events are overwritten — the exported timeline is the
// tail of the run, which is the part an investigation usually wants.
//
// The ring holds typed records, not Events: recording one writes a slot in
// place and allocates nothing, and Events builds the Event values and their
// Args maps only when the timeline is exported.
type Tracer struct {
	meta    []Event // track-naming metadata, emitted once, never evicted
	ring    []record
	head    int // oldest record once the ring is full
	dropped int64

	// spans holds the names and args of span records, a side ring as long
	// as the main one and filled in the same order. A span record points at
	// its slot by index, and a slot is reused only after as many newer spans
	// — each holding a main-ring slot too — have evicted that record.
	spans    []spanInfo
	spanNext int
}

// recKind classifies a ring record.
type recKind uint8

const (
	recOp recKind = iota
	recRequest
	recSpan
)

// record is one retained timeline event in typed form. It is fixed-size
// and pointer-free, so the preallocated ring costs the garbage collector
// nothing to scan. op is the ssd.OpKind of an op record and the RequestOp
// of a request record. tid is an op's chip; a span's track follows from its
// origin, so its tid indexes the span side ring instead. ph is a request's
// phase decomposition; an op keeps its queue wait in ph[0].
type record struct {
	kind    recKind
	origin  Origin
	op      uint8
	tid     int32
	ts, dur int64
	ph      [NumPhases]ssd.Time
}

// spanInfo is the part of a span that does not fit a record.
type spanInfo struct {
	name string
	args map[string]any
}

func newTracer(cap int) *Tracer {
	return &Tracer{ring: make([]record, 0, cap)}
}

// attach names the tracks for the drive's geometry.
func (tr *Tracer) attach(geo ssd.Geometry) {
	if tr == nil {
		return
	}
	name := func(pid, tid int, what, n string) {
		tr.meta = append(tr.meta,
			Event{Name: what, Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": n}})
	}
	name(PidHost, 0, "process_name", "host requests")
	name(PidFlash, 0, "process_name", "flash chips")
	name(PidDaemons, 0, "process_name", "daemons")
	name(PidHost, int(ReqRead), "thread_name", "reads")
	name(PidHost, int(ReqWrite), "thread_name", "writes")
	for c := 0; c < geo.TotalChips(); c++ {
		name(PidFlash, c, "thread_name",
			fmt.Sprintf("chip %d (ch %d)", c, geo.ChannelOfChip(c)))
	}
	name(PidDaemons, TidGC, "thread_name", "garbage collection")
	name(PidDaemons, TidScrub, "thread_name", "scrub patrol")
	name(PidDaemons, TidRecovery, "thread_name", "crash recovery")
}

// slot returns the ring slot the next record is written into, evicting
// the oldest record when the ring is full.
func (tr *Tracer) slot() *record {
	if len(tr.ring) < cap(tr.ring) {
		tr.ring = tr.ring[:len(tr.ring)+1]
		return &tr.ring[len(tr.ring)-1]
	}
	r := &tr.ring[tr.head]
	tr.head = (tr.head + 1) % len(tr.ring)
	tr.dropped++
	return r
}

// emitOp places one flash operation on its chip's track. The queue wait,
// when present, is exposed in args so Perfetto can surface it.
func (tr *Tracer) emitOp(origin Origin, op ssd.OpObservation) {
	if tr == nil {
		return
	}
	r := tr.slot()
	*r = record{
		kind:   recOp,
		origin: origin,
		op:     uint8(op.Kind),
		tid:    int32(op.Chip),
		ts:     int64(op.Start),
		dur:    int64(op.Done - op.Start),
	}
	if wait := op.Start - op.Issue; wait > 0 {
		r.ph[0] = wait
	}
}

// emitRequest places one finished host request on the read or write track
// with its phase decomposition in args.
func (tr *Tracer) emitRequest(req *Request) {
	if tr == nil {
		return
	}
	*tr.slot() = record{
		kind: recRequest,
		op:   uint8(req.Op),
		ts:   int64(req.Arrival),
		dur:  int64(req.Latency()),
		ph:   req.Phases,
	}
}

// emitSpan places a daemon span (GC cycle, patrol visit, recovery scan).
func (tr *Tracer) emitSpan(origin Origin, name string, start, end ssd.Time, args map[string]any) {
	if tr == nil {
		return
	}
	if end < start {
		end = start
	}
	idx := tr.spanNext
	if len(tr.spans) < cap(tr.ring) {
		tr.spans = append(tr.spans, spanInfo{name, args})
	} else {
		tr.spans[idx] = spanInfo{name, args}
	}
	tr.spanNext = (idx + 1) % cap(tr.ring)
	*tr.slot() = record{
		kind:   recSpan,
		origin: origin,
		tid:    int32(idx),
		ts:     int64(start),
		dur:    int64(end - start),
	}
}

// spanTid returns the daemon track of a span with the given origin.
func spanTid(origin Origin) int {
	switch origin {
	case OriginScrub:
		return TidScrub
	case OriginRecovery:
		return TidRecovery
	}
	return TidGC
}

// event builds the exported form of one record.
func (tr *Tracer) event(r *record) Event {
	e := Event{Ph: "X", Ts: r.ts, Dur: r.dur}
	switch r.kind {
	case recOp:
		e.Name = ssd.OpKind(r.op).String()
		e.Cat = r.origin.String()
		e.Pid, e.Tid = PidFlash, int(r.tid)
		if r.ph[0] > 0 {
			e.Args = map[string]any{"wait_us": int64(r.ph[0])}
		}
	case recRequest:
		e.Name = RequestOp(r.op).String()
		e.Cat = "request"
		e.Pid, e.Tid = PidHost, int(r.op)
		e.Args = make(map[string]any, NumPhases)
		for p := Phase(0); p < NumPhases; p++ {
			if r.ph[p] != 0 {
				e.Args[p.String()+"_us"] = int64(r.ph[p])
			}
		}
	default: // recSpan
		s := &tr.spans[r.tid]
		e.Name = s.name
		e.Cat = r.origin.String()
		e.Pid, e.Tid = PidDaemons, spanTid(r.origin)
		e.Args = s.args
	}
	return e
}

// Events returns the retained events: metadata first, then the ring's
// events oldest-first. The ring's Event values and their Args maps are
// built here, on every call.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	out := make([]Event, 0, len(tr.meta)+len(tr.ring))
	out = append(out, tr.meta...)
	for i := range tr.ring {
		out = append(out, tr.event(&tr.ring[(tr.head+i)%len(tr.ring)]))
	}
	return out
}

// Dropped returns how many events the bounded ring has evicted.
func (tr *Tracer) Dropped() int64 {
	if tr == nil {
		return 0
	}
	return tr.dropped
}
