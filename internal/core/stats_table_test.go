package core

import (
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestCounterTableCoversStats: every Stats field of kind int64 (phase times
// included) has exactly one row in Counters, a row's name ends in "_ms"
// exactly when its field is a time.Duration, and names are unique
// lower-case identifiers.
func TestCounterTableCoversStats(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	fields := map[uintptr]reflect.StructField{}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Type.Kind() == reflect.Int64 {
			fields[v.Field(i).Addr().Pointer()] = f
		}
	}
	name := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	seen := map[string]bool{}
	rows := map[string]int{}
	for _, c := range Counters {
		if !name.MatchString(c.Name) || seen[c.Name] {
			t.Errorf("counter name %q is not a unique lower-case identifier", c.Name)
		}
		seen[c.Name] = true
		f, ok := fields[reflect.ValueOf(c.Field(&s)).Pointer()]
		if !ok {
			t.Errorf("counter %q selects no int64 field of Stats", c.Name)
			continue
		}
		rows[f.Name]++
		if isDur := f.Type == reflect.TypeOf(time.Duration(0)); c.Millis() != isDur {
			t.Errorf("counter %q on Stats.%s: Millis() = %v, want %v", c.Name, f.Name, c.Millis(), isDur)
		}
	}
	for _, f := range fields {
		if rows[f.Name] != 1 {
			t.Errorf("Stats.%s has %d rows in Counters, want 1", f.Name, rows[f.Name])
		}
	}
}
