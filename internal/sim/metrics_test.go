package sim

import (
	"reflect"
	"testing"
)

// fillMetrics sets every int64 field of a DeviceMetrics, nested stats
// blocks included, to a distinct value derived from seed, and returns how
// many fields it set. Any other field kind fails the test: Add and Sub
// would have no defined arithmetic for it.
func fillMetrics(t *testing.T, m *DeviceMetrics, seed int64) int {
	t.Helper()
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Int64:
				n++
				f.SetInt(seed*1000 + int64(n))
			default:
				t.Fatalf("DeviceMetrics field %s.%s is a %s", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(m).Elem())
	return n
}

// TestDeviceMetricsAddSubInverse checks Add and Sub over every counter:
// a field that one of them (or a nested stats block's) forgets would
// silently drop out of per-tenant totals.
func TestDeviceMetricsAddSubInverse(t *testing.T) {
	var a, b DeviceMetrics
	n := fillMetrics(t, &a, 3)
	fillMetrics(t, &b, 7)
	if n < 50 {
		t.Fatalf("filled only %d fields; the walk missed nested blocks", n)
	}
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("a.Add(b).Sub(b) != a:\n got %+v\nwant %+v", got, a)
	}
	if got := a.Sub(a); got != (DeviceMetrics{}) {
		t.Errorf("a.Sub(a) != 0: %+v", got)
	}
	if got, want := a.Add(b), b.Add(a); got != want {
		t.Errorf("Add is not commutative:\n a+b %+v\n b+a %+v", got, want)
	}
}
