package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"binpart/internal/binimg"
	"binpart/internal/obs"
)

// TestStageCacheNamesAgree pins the stage caches' three name tables to
// one set: the values of obs.CacheForStage (the caches Reconcile checks
// span outcomes against), the keys of StatsMap (what manifests, -stats
// and /metrics report) and cacheNames (the -stats row order).
// Reconcile skips a stage whose cache is missing from the stats map, so
// a rename or deletion in one table alone would unhook it silently.
func TestStageCacheNamesAgree(t *testing.T) {
	var stages, stats []string
	for _, name := range obs.CacheForStage {
		stages = append(stages, name)
	}
	for name := range NewCaches().StatsMap() {
		stats = append(stats, name)
	}
	rows := slices.Clone(cacheNames)
	for _, s := range [][]string{stages, stats, rows} {
		slices.Sort(s)
	}
	if !slices.Equal(stages, stats) {
		t.Errorf("obs.CacheForStage names caches %v, StatsMap reports %v", stages, stats)
	}
	if !slices.Equal(rows, stats) {
		t.Errorf("cacheNames lists %v, StatsMap reports %v", rows, stats)
	}
}

// TestCacheKeysCoverOptions perturbs every leaf field of Options, one at
// a time, and checks which stage keys move: the analysis key with every
// field but the evaluate-time Platform, AreaBudgetGates and Algorithm;
// the sim key (an analysis simulates under opts.Sim) with Sim alone. A
// field the keys cannot compare by value — a pointer, slice, map or
// func — fails here.
func TestCacheKeysCoverOptions(t *testing.T) {
	var d binimg.Digest
	base := DefaultOptions()
	var leaves int
	var walk func(path []int, names []string, typ reflect.Type)
	walk = func(path []int, names []string, typ reflect.Type) {
		if typ.Kind() == reflect.Struct {
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(append(slices.Clip(path), i), append(slices.Clip(names), f.Name), f.Type)
			}
			return
		}
		leaves++
		opts := base
		field := reflect.ValueOf(&opts).Elem().FieldByIndex(path)
		name, top := strings.Join(names, "."), names[0]
		switch field.Kind() {
		case reflect.Bool:
			field.SetBool(!field.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			field.SetInt(field.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			field.SetUint(field.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			field.SetFloat(field.Float() + 1)
		case reflect.String:
			field.SetString(field.String() + "x")
		default:
			t.Fatalf("%s: a %s field is not compared by value in a cache key", name, field.Kind())
		}

		evalTime := top == "Platform" || top == "AreaBudgetGates" || top == "Algorithm"
		if moved := analysisKeyFor(d, opts) != analysisKeyFor(d, base); moved == evalTime {
			t.Errorf("%s: analysis key moved = %v, want %v", name, moved, !evalTime)
		}
		if moved := (simKey{d, opts.Sim} != simKey{d, base.Sim}); moved != (top == "Sim") {
			t.Errorf("%s: sim key moved = %v, want %v", name, moved, top == "Sim")
		}
	}
	walk(nil, nil, reflect.TypeOf(base))
	if want := leafFields(reflect.TypeOf(base)); leaves != want {
		t.Fatalf("walked %d leaf fields of Options, but it has %d", leaves, want)
	}

	other := d
	other[0] ^= 1
	if analysisKeyFor(d, base) == analysisKeyFor(other, base) || (simKey{d, base.Sim} == simKey{other, base.Sim}) {
		t.Error("a different image digest left a stage key unchanged")
	}
}

// leafFields counts typ's non-struct fields at any depth, by
// reflect.VisibleFields rather than by field index as the walk above
// does; a promoted field is counted under the struct it is embedded in.
func leafFields(typ reflect.Type) int {
	n := 0
	for _, f := range reflect.VisibleFields(typ) {
		switch {
		case len(f.Index) > 1:
		case f.Type.Kind() == reflect.Struct:
			n += leafFields(f.Type)
		default:
			n++
		}
	}
	return n
}
