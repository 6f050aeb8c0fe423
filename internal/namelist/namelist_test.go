package namelist

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestResolve(t *testing.T) {
	all := []string{"counter", "rc", "slots"}
	lookup := func(name string) (string, error) {
		for _, n := range all {
			if n == name {
				return n, nil
			}
		}
		return "", fmt.Errorf("unknown workload %q (have %v)", name, all)
	}
	for _, c := range []struct {
		spec    string
		want    []string
		wantErr string // substring; "" = no error
	}{
		{"all", all, ""},
		{"slots", []string{"slots"}, ""},
		{"slots,counter", []string{"slots", "counter"}, ""},
		{"slots,nope", nil, `unknown workload "nope" (have [counter rc slots])`},
		{"slots,,rc", nil, `unknown workload ""`},
		{"", nil, `unknown workload ""`},
		{"slots,all", nil, `unknown workload "all"`},
	} {
		got, err := Resolve(c.spec, all, lookup)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("Resolve(%q): %v", c.spec, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("Resolve(%q) = %v, %v; want an error containing %q", c.spec, got, err, c.wantErr)
		case !reflect.DeepEqual(got, c.want):
			t.Errorf("Resolve(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry[int]("mc: unknown workload")
	r.Register("rc", 3)
	r.Register("basic", 1)
	r.Register("quorum", 2)
	if got := r.Names(); !reflect.DeepEqual(got, []string{"basic", "quorum", "rc"}) {
		t.Errorf("Names() = %v, want alphabetical", got)
	}
	if got := r.All(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("All() = %v, want values in name order", got)
	}
	if v, err := r.Lookup("quorum"); err != nil || v != 2 {
		t.Errorf("Lookup(quorum) = %v, %v", v, err)
	}
	_, err := r.Lookup("nope")
	if want := `mc: unknown workload "nope" (have [basic quorum rc])`; err == nil || err.Error() != want {
		t.Errorf("Lookup(nope) error = %v, want %s", err, want)
	}
}

// A second row under a name already registered must not replace the
// first without a word.
func TestRegistryRejectsDuplicateName(t *testing.T) {
	r := NewRegistry[int]("mc: unknown workload")
	r.Register("rc", 3)
	defer func() {
		if p := recover(); p == nil {
			t.Errorf("duplicate Register accepted; All() = %v", r.All())
		}
		if v, _ := r.Lookup("rc"); v != 3 {
			t.Errorf("Lookup(rc) = %d after the rejected duplicate, want 3", v)
		}
	}()
	r.Register("rc", 4)
}
