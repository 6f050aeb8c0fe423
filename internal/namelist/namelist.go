// Package namelist resolves the list values the verification tools'
// -workload and -class flags take: one name, a comma list, or "all".
package namelist

import "strings"

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
