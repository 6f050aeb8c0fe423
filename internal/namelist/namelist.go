// Package namelist resolves the list values the tools' -workload,
// -class and -only flags take — one name, a comma list, or "all" — and
// holds the name-keyed registry the harnesses' workloads live in.
package namelist

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Resolve returns what spec names: all for "all", otherwise lookup's
// result for each comma-separated element, in the order given. A single
// name is the one-element list, so it takes the same path — and an
// unknown or empty element fails with lookup's own error, which is
// where the valid names are listed.
func Resolve[T any](spec string, all []T, lookup func(string) (T, error)) ([]T, error) {
	if spec == "all" {
		return all, nil
	}
	var out []T
	for _, name := range strings.Split(spec, ",") {
		v, err := lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Registry is a table of named values filled at start-up. It says once
// what every such table repeats: name to value, the names in order, and
// the error that lists them when a name is unknown.
type Registry[T any] struct {
	what   string
	byName map[string]T
}

// NewRegistry returns an empty registry; what words its unknown-name
// error, as in "mc: unknown workload".
func NewRegistry[T any](what string) *Registry[T] {
	return &Registry[T]{what: what, byName: map[string]T{}}
}

// Register files v under name. A table is filled once at start-up, so a
// name registered twice is a pasted row that would silently hide the
// first: it panics.
func (r *Registry[T]) Register(name string, v T) {
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("namelist: %q registered twice (%s)", name, r.what))
	}
	r.byName[name] = v
}

// Lookup resolves a name; the error for an unknown one lists Names.
func (r *Registry[T]) Lookup(name string) (T, error) {
	v, ok := r.byName[name]
	if !ok {
		return v, fmt.Errorf("%s %q (have %v)", r.what, name, r.Names())
	}
	return v, nil
}

// Names lists the registered names alphabetically.
func (r *Registry[T]) Names() []string { return sim.SortedKeys(r.byName) }

// All returns every registered value in name order.
func (r *Registry[T]) All() []T {
	out := make([]T, 0, len(r.byName))
	for _, n := range r.Names() {
		out = append(out, r.byName[n])
	}
	return out
}
