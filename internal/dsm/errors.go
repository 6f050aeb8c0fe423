package dsm

// Typed crash-stop failure errors. When the cluster runs with failure
// detection enabled, DSM operations that cannot complete because of a
// host crash return these through the public API instead of retrying
// forever or panicking; errors.Is distinguishes the two outcomes the
// protocol can prove:
//
//   - ErrHostDown: a host the operation depends on (the page's manager,
//     or the only host that could answer) has been declared dead. The
//     page range it managed is unavailable but isolated — accesses to
//     other ranges proceed normally.
//   - ErrPageLost: the page's only copy died with its owner. The page's
//     manager is alive and has proven, by polling every survivor, that
//     no copy exists anywhere; the loss is permanent.
//
// Without failure detection (the default, and every no-fault
// configuration) these errors are unreachable: protocol failures remain
// hard panics, as a deterministic simulation bug should be.

import (
	"errors"
	"fmt"
)

// ErrHostDown reports that an operation depended on a crashed host.
var ErrHostDown = errors.New("dsm: host is down")

// ErrPageLost reports that a page's only copy died with its owner.
var ErrPageLost = errors.New("dsm: page lost")

// ErrNoAtomics reports an atomic operation under a policy that defines
// none: write-update, quorum and release consistency. Synchronization
// belongs to the distributed synchronization facility there.
var ErrNoAtomics = errors.New("dsm: atomic operations are not defined under this policy; use the distributed synchronization facility")

// noAtomicsErr builds a typed ErrNoAtomics naming the policy.
func noAtomicsErr(pol Policy) error {
	return fmt.Errorf("%w (policy %s)", ErrNoAtomics, pol)
}

// hostDownErr builds a typed ErrHostDown with context.
func hostDownErr(h HostID, format string, args ...any) error {
	return fmt.Errorf("%w (host %d): %s", ErrHostDown, h, fmt.Sprintf(format, args...))
}

// pageLostErr builds a typed ErrPageLost for one page.
func pageLostErr(page PageNo) error {
	return fmt.Errorf("%w (page %d): its only copy died with its owner", ErrPageLost, page)
}
