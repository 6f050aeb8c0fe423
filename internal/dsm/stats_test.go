package dsm

import (
	"reflect"
	"testing"

	"repro/internal/proto"
)

// fillStats sets every numeric leaf under v, array elements included,
// to a distinct non-zero value, so a field Add forgets shows up as a
// zero in the sum.
func fillStats(t *testing.T, v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Int:
		*next++
		v.SetInt(int64(*next))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillStats(t, v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillStats(t, v.Index(i), next)
		}
	default:
		t.Fatalf("Stats grew a %s field; teach Add and this test to sum it", v.Kind())
	}
}

// TestStatsAddCoversEveryField is the guard against the next forgotten
// counter: TotalDSMStats once summed by hand and silently dropped the
// three write-update counters.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one Stats
	n := 0
	fillStats(t, reflect.ValueOf(&one).Elem(), &n)

	var total Stats
	total.Add(one)
	if !reflect.DeepEqual(total, one) {
		tv, ov := reflect.ValueOf(total), reflect.ValueOf(one)
		for i := 0; i < tv.NumField(); i++ {
			if !reflect.DeepEqual(tv.Field(i).Interface(), ov.Field(i).Interface()) {
				t.Errorf("Add dropped %s: zero + %v = %v", tv.Type().Field(i).Name, ov.Field(i), tv.Field(i))
			}
		}
	}

	total.Add(one)
	if total.ReadFaults != 2*one.ReadFaults || total.ConvReport.Elements != 2*one.ConvReport.Elements ||
		total.Messages[proto.KindInvalidate] != 2*one.Messages[proto.KindInvalidate] {
		t.Errorf("counters must add: %+v", total)
	}
	if total.ChainMax != one.ChainMax {
		t.Errorf("ChainMax is a maximum, got %d from two %d", total.ChainMax, one.ChainMax)
	}
}
