package telemetry

import (
	"reflect"
	"testing"
	"unsafe"

	"zombiessd/internal/ssd"
)

// TestRingRecordCompact pins the ring element's footprint: every device
// with telemetry preallocates DefaultTraceCap slots, so a record larger
// than the Event it replaces would grow the live heap of every
// instrumented run, and a pointer inside it would make the garbage
// collector scan the whole ring.
func TestRingRecordCompact(t *testing.T) {
	if rs, es := unsafe.Sizeof(record{}), unsafe.Sizeof(Event{}); rs > es {
		t.Errorf("ring record is %d bytes, larger than Event's %d", rs, es)
	}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type)
			}
		case reflect.Array:
			walk(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32,
			reflect.Int64, reflect.Uint, reflect.Uint8, reflect.Uint16,
			reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		default:
			t.Errorf("ring record holds a %s (%s); it must stay pointer-free", typ.Kind(), typ)
		}
	}
	walk(reflect.TypeOf(record{}))
}

// TestHooksAllocationFree checks that, with the tracer on, observing an op
// and opening and closing a tenant-tagged request scope allocate nothing
// once the instance is warm (tenants declared, ring slots written).
func TestHooksAllocationFree(t *testing.T) {
	tel := New(Config{Enabled: true, TraceCap: 64})
	tel.Attach(ssd.DefaultGeometry())
	tel.DeclareTenants([]string{"a", "b"})
	if tel.Tracer() == nil {
		t.Fatal("tracer is off")
	}
	var at ssd.Time
	op := func() {
		at += 20
		tel.ObserveOp(ssd.OpObservation{Kind: ssd.OpProgram, Chip: 1, Channel: 1,
			Issue: at, Start: at + 3, Transfer: 4, Cell: 20, Done: at + 27})
	}
	req := func() {
		at += 40
		tel.BeginRequestTenant(ReqWrite, at, at+2, 1)
		tel.ObserveOp(ssd.OpObservation{Kind: ssd.OpProgram, Chip: 2, Channel: 2,
			Issue: at + 2, Start: at + 5, Transfer: 4, Cell: 20, Done: at + 29})
		tel.EndRequest(at + 31)
	}
	for i := 0; i < 200; i++ { // wrap the ring
		op()
		req()
	}
	if n := testing.AllocsPerRun(1000, op); n != 0 {
		t.Errorf("ObserveOp allocates %.1f objects per call", n)
	}
	if n := testing.AllocsPerRun(1000, req); n != 0 {
		t.Errorf("BeginRequestTenant+EndRequest allocates %.1f objects per request", n)
	}
	if tel.Tracer().Dropped() == 0 {
		t.Error("the ring never wrapped")
	}
}

// TestSpanSideRingWrap checks that span names and args survive the ring's
// wrap: after many more spans than slots, every retained span exports the
// name and args it was emitted with.
func TestSpanSideRingWrap(t *testing.T) {
	tel := New(Config{Enabled: true, TraceCap: 8})
	for i := 0; i < 50; i++ {
		at := ssd.Time(10 * i)
		if i%3 == 0 {
			tel.ObserveOp(testObservation(ssd.OpRead, at))
		}
		tel.EmitSpan(OriginScrub, "visit", at, at+5, map[string]any{"i": i})
	}
	events := tel.Tracer().Events()
	if len(events) != 8 {
		t.Fatalf("%d events retained, want 8", len(events))
	}
	last := -1
	for _, e := range events {
		if e.Name != "visit" {
			continue
		}
		i := e.Args["i"].(int)
		if e.Ts != int64(10*i) || e.Tid != TidScrub {
			t.Errorf("span %d exported at ts %d tid %d", i, e.Ts, e.Tid)
		}
		if i <= last {
			t.Errorf("span %d after span %d: not oldest-first", i, last)
		}
		last = i
	}
	if last != 49 {
		t.Errorf("newest retained span is %d, want 49", last)
	}
}
