package dsm

// Typed failure errors. A DSM operation that cannot complete because a
// host it depends on crashed or stayed unreachable returns these through
// the E-accessors instead of retrying forever, with or without failure
// detection; errors.Is distinguishes the two outcomes the protocol can
// prove:
//
//   - ErrHostDown: a host the operation depends on (the page's manager,
//     or the only host that could answer) has been declared dead, or a
//     page fault kept failing through its bounded retries. The page
//     range it managed is unavailable but isolated — accesses to other
//     ranges proceed normally.
//   - ErrPageLost: the page's only copy died with its owner. The page's
//     manager is alive and has proven, by polling every survivor, that
//     no copy exists anywhere; the loss is permanent.
//
// A central or update request that ran out of retransmissions before
// any detector spoke wraps remoteop.ErrTimeout instead. The plain
// accessors panic with whatever their E twins return (access.go).

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
