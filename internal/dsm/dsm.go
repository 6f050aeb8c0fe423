// Package dsm implements Mermaid's shared memory management module: Li's
// multiple-reader/single-writer write-invalidate algorithm with fixed
// distributed managers, extended to a heterogeneous cluster (§2 of the
// paper).
//
// Every host runs a Module. The shared address space is divided into DSM
// pages of a configurable size: the *largest page size algorithm* uses
// the largest native VM page (8 KB, the Sun's), so hosts with smaller VM
// pages treat groups of native pages as one DSM page; the *smallest page
// size algorithm* uses the smallest native page (1 KB, the Firefly's),
// so a fault on a host with larger VM pages fetches every missing DSM
// page in the 8 KB VM page and an invalidation of any sub-page unmaps
// the whole VM page (§2.4).
//
// Each page has a fixed manager (page number mod cluster size) that
// knows the owner and the copy set and through which every transfer
// request passes, as in the paper's implementation (§3.1). Pages hold
// raw bytes in the *holder's* native representation; when a page moves
// between incompatible machines, the receiver invokes the registered
// conversion routine for the page's (single) data type over the
// allocated prefix, rebasing embedded pointers by the difference of the
// two machine types' DSM base addresses (§2.3).
package dsm

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// HostID aliases the network host identifier.
type HostID = remoteop.HostID

// Addr is a location in the shared DSM address space, expressed as an
// offset from the space's start. The *stored* representation of a
// pointer on a given host is Addr plus that machine type's virtual base
// address, which is what makes pointer conversion necessary.
type Addr uint32

// PageNo numbers DSM pages from 0.
type PageNo uint32

// Access is a host's current right to a page.
type Access int

const (
	// NoAccess means the page is not resident (any access faults).
	NoAccess Access = iota
	// ReadAccess means a read-only replica is resident.
	ReadAccess
	// WriteAccess means this host owns the only writable copy.
	WriteAccess
)

// String names the access level.
func (a Access) String() string {
	switch a {
	case NoAccess:
		return "none"
	case ReadAccess:
		return "read"
	case WriteAccess:
		return "write"
	default:
		return fmt.Sprintf("Access(%d)", int(a))
	}
}

// Policy selects the coherence algorithm. Mermaid's user-level design
// lets several DSM packages coexist so applications can pick the one
// matching their access behaviour (§2.1, citing the authors' companion
// study of DSM algorithms); three of those algorithms are provided.
type Policy int

const (
	// PolicyMRSW is Li's multiple-reader/single-writer write-invalidate
	// algorithm — the paper's (and this package's) default.
	PolicyMRSW Policy = iota
	// PolicyMigration keeps a single copy of each page that migrates to
	// whichever host touches it: no read replication, so read-shared
	// data ping-pongs, but no invalidations either.
	PolicyMigration
	// PolicyCentral performs every access as a remote operation at the
	// page's server (no local caching): expensive per access, immune to
	// page thrashing, and good for small, heavily write-shared data.
	PolicyCentral
	// PolicyUpdate replicates on read like MRSW but never invalidates:
	// writes are sequenced by the manager and pushed to every replica
	// (write-update, full replication). Reads stay local forever; each
	// write pays a sequencing round trip.
	PolicyUpdate
	// PolicyQuorum is the SC-ABD algorithm (Ekström & Haridi): every
	// host keeps a tag-ordered replica of every page, reads query a
	// majority for the highest tag and write the winner back before
	// returning, writes install value+tag at a majority. Each access
	// pays a quorum round trip, but reads and writes stay sequentially
	// consistent *and live* in any majority component of a partition —
	// the only engine that makes progress while the fabric is split.
	PolicyQuorum
	// PolicyRC is lazy release consistency (rc.go): every
	// resident copy is writable, writes are captured against a twin and
	// propagated at release time as element-aligned typed diffs to the
	// page's home, and acquirers pull the intervals their vector
	// timestamps imply. The only policy whose consistency model is not
	// SC — its trace oracle is the happens-before checker.
	PolicyRC
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyMRSW:
		return "MRSW"
	case PolicyMigration:
		return "migration"
	case PolicyCentral:
		return "central"
	case PolicyUpdate:
		return "update"
	case PolicyQuorum:
		return "quorum"
	case PolicyRC:
		return "rc"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config is the cluster-wide DSM configuration, shared by every Module.
type Config struct {
	// PageSize is the DSM page size in bytes: 8192 under the largest
	// page size algorithm, 1024 under the smallest (§2.4).
	PageSize int
	// SpaceSize is the total size of the shared address space in bytes.
	SpaceSize int
	// Registry is the global type/conversion-routine table (§2.3).
	Registry *conv.Registry
	// Params is the calibrated cost model.
	Params *model.Params
	// PreferSameKindSource lets the manager serve read faults from a
	// copyset member of the requester's machine type when one exists,
	// avoiding a conversion (§2.3's optimization).
	PreferSameKindSource bool
	// Directory selects the manager-placement scheme (directory.go):
	// fixed distributed managers (default), centralized on host 0 (Li's
	// centralized-manager variant, an ablation of the paper's fixed
	// distributed manager choice, §3.1), or Li & Hudak's dynamic
	// distributed manager with probable-owner forwarding. DirDynamic is
	// only defined for PolicyMRSW.
	Directory Directory
	// Policy selects the coherence algorithm (default PolicyMRSW).
	Policy Policy
	// UnicastInvalidate sends every copyset round (write invalidations
	// and write-update pushes) as individual calls instead of one
	// physical broadcast frame — an ablation of the paper's multicast
	// invalidation (§2.2).
	UnicastInvalidate bool
	// Trace, when set, receives one event per notable DSM action
	// (faults, fetches, serves, invalidations, upgrades) and per audit
	// point of the invariant checker (allocated, fault-serviced,
	// page-installed, transfer-complete, owner-confirmed, …) for
	// offline analysis; see TraceEvent.Event. It must not block.
	Trace func(TraceEvent)
	// SCRecorder, when set, records every typed access (per page span,
	// in canonical representation) for offline sequential-consistency
	// checking by internal/sctrace. One recorder serves the whole
	// cluster; the kernel's one-process-at-a-time execution keeps it
	// race-free.
	SCRecorder *sctrace.Recorder
	// Mutation injects one deliberate protocol bug cluster-wide (see
	// mutation.go) — the model checker's mutation-kill harness. Leave
	// MutNone for the correct protocol.
	Mutation Mutation
}

// TraceEvent is one DSM protocol action.
type TraceEvent struct {
	// Time is the virtual time of the event.
	Time sim.Time
	// Host is where the event happened.
	Host HostID
	// Event names the action: read-fault, write-fault, fetch, serve,
	// invalidate, upgrade and the other protocol steps, and the
	// checker's audit points — allocated, fault-serviced,
	// page-installed, transfer-complete, owner-confirmed, host-death,
	// dyn-upgraded, dyn-transfer, dyn-confirmed, central-write,
	// update-sequenced, update-applied, quorum-write, quorum-install.
	// An attached InvariantChecker audits the page at every event.
	Event string
	// Page is the DSM page concerned.
	Page PageNo
}

// bases maps each machine kind to the virtual address at which the DSM
// region starts on hosts of that kind. Distinct bases exercise pointer
// rebasing; the paper's implementation used equal bases.
var bases = map[arch.Kind]uint32{
	arch.Sun:     0x1000_0000,
	arch.Firefly: 0x2000_0000,
}

// Validate checks structural requirements.
func (c *Config) Validate() error {
	if c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("dsm: page size %d not a positive power of two", c.PageSize)
	}
	if c.SpaceSize <= 0 || c.SpaceSize%c.PageSize != 0 {
		return fmt.Errorf("dsm: space size %d not a multiple of page size %d", c.SpaceSize, c.PageSize)
	}
	if c.Registry == nil {
		return fmt.Errorf("dsm: no type registry")
	}
	if c.Params == nil {
		return fmt.Errorf("dsm: no cost model")
	}
	return c.validatePolicy()
}

// pageMeta is the allocation record of one page: its single data type
// and how many bytes of it are in use. It is replicated to every host at
// allocation time (the paper's global static table).
type pageMeta struct {
	typeID conv.TypeID
	used   int
}

// localPage is a host's resident copy of a page.
type localPage struct {
	data   []byte
	access Access
}

// The lock order of one host's processes. A process takes these locks
// only in increasing rank, and sim checks it at every P and Use
// (sim.Semaphore.Ranked), so within a host no two processes can each
// hold a lock the other waits for. A fault holds its page's fault lock
// across the directory's transaction, the transaction holds the page's
// transaction lock across recovery coordination (a dynamic owner may
// coordinate its own page), and protocol CPU time is charged under any
// of them.
//
// The order does not reach across hosts, where a process holding a
// lock waits in ep.Call for a handler. There the argument is the
// directory's: a page's entry lock lives only on its one static
// manager, which never calls itself, and a dynamic hop holds only its
// own host's lock along an acyclic probable-owner chain. A cycle would
// end in call timeouts: an error from the E-accessors, a panic from the
// plain ones, a reported outcome in mc and chaos.
const (
	rankFaultLock = 1 + iota // faultLockFor
	rankPageTxn              // newPageTxn: mgrEntry.lock, dynPage.lock
	rankRecovery             // dynPage.recLock
	rankProtoCPU             // Module.protoCPU
)

// pageTxn is the transaction record both directory schemes keep for a
// page: the fixed manager in its table entry (mgrEntry), the dynamic
// owner in its page state (dynPage). The schemes differ only in who
// keeps it.
type pageTxn struct {
	// copyset lists the hosts recorded as holding a read copy.
	copyset map[HostID]struct{}
	// lock serializes the page's transfer transactions: one at a time,
	// Li's one-request-at-a-time processing per record keeper.
	lock *sim.Semaphore
	// lost marks a page whose every copy died with crashed hosts;
	// accesses fail with ErrPageLost (see recovery.go).
	lost bool
	// The confirm handshake (awaitConfirm, confirm): a transaction parks
	// until the requester reports the copy installed, so the next
	// transaction's invalidation cannot reach the requester mid-install
	// and be resurrected by it.
	confirmed    bool
	confirmArmed bool
	confirmW     sim.Waiter
}

// newPageTxn returns an empty record with a free transaction lock.
func newPageTxn(k *sim.Kernel) pageTxn {
	return pageTxn{copyset: make(map[HostID]struct{}), lock: sim.NewSemaphore(k, 1).Ranked(rankPageTxn, "page-transaction lock")}
}

// mgrEntry is the manager-side state of one managed page.
type mgrEntry struct {
	pageTxn
	owner HostID
	// suspect marks an entry whose last transfer was never confirmed by
	// a live requester (the forwarding owner may have crashed with the
	// page in flight): the bookkeeping may not reflect who really holds
	// the page. The next transaction reconciles by asking suspectHost
	// (see recovery.go) before trusting the entry.
	suspect     bool
	suspectHost HostID
}

// Stats counts one host's DSM activity.
type Stats struct {
	// ReadFaults and WriteFaults count fault-handler invocations (one
	// per native VM fault, even when it fetches several DSM pages).
	ReadFaults  int
	WriteFaults int
	// PagesFetched counts DSM page bodies received.
	PagesFetched int
	// PagesServed counts DSM page bodies sent to other hosts.
	PagesServed int
	// Upgrades counts write faults satisfied without a transfer.
	Upgrades int
	// InvalidationsSent counts invalidations issued while managing.
	InvalidationsSent int
	// InvalidationsReceived counts local copies discarded on request.
	InvalidationsReceived int
	// Conversions counts page conversions performed on receipt.
	Conversions int
	// ConvReport accumulates float anomalies from those conversions.
	ConvReport conv.Report
	// BytesFetched counts payload bytes received in page bodies.
	BytesFetched int
	// RemoteReads and RemoteWrites count central-policy operations
	// issued to other hosts' servers.
	RemoteReads  int
	RemoteWrites int
	// UpdateWrites counts write-update sequencing requests sent;
	// UpdatePushes counts per-replica update deliveries issued by a
	// manager; UpdatesApplied counts updates applied to local replicas.
	UpdateWrites   int
	UpdatePushes   int
	UpdatesApplied int
	// PagesRecovered counts pages this manager re-owned after their
	// owner crashed; PagesLost counts pages declared unrecoverable.
	PagesRecovered int
	PagesLost      int
	// QuorumReads and QuorumWrites count SC-ABD quorum operations this
	// host initiated; QuorumWriteBacks counts read-side write-back
	// rounds (the second phase that makes interrupted writes atomic);
	// QuorumRetries counts fan-out rounds re-run because a majority was
	// unreachable (partition riding). Of the phase-2 rounds,
	// QuorumDiffPushes counts those that shipped a write's diff alone and
	// QuorumImagePushes those that shipped the whole image (read
	// write-backs, and writes a replica lacked the diff's base for). All
	// zero outside PolicyQuorum.
	QuorumReads       int
	QuorumWrites      int
	QuorumWriteBacks  int
	QuorumRetries     int
	QuorumDiffPushes  int
	QuorumImagePushes int
	// Forwards counts dynamic-directory requests this host relayed one
	// hop down its probable-owner chain (dynamic.go).
	Forwards int
	// ChainServes counts dynamic-directory transactions this host
	// served as owner; ChainHops sums the forwarding hops those
	// requests travelled before arriving, and ChainMax is the longest
	// single chain observed. All zero under the fixed schemes.
	ChainServes int
	ChainHops   int
	ChainMax    int
	// RCTwins counts twins created (first write of an interval per
	// page); RCDiffsSent counts interval diffs pushed to homes and
	// RCDiffBytes their encoded payload bytes; RCDiffsApplied counts
	// diffs folded into this host's copy (as home or as puller);
	// RCPulls counts acquire-time catch-up requests issued, and
	// RCGrantDiffs the diffs an acquire applied from those a grant
	// carried instead; RCDiffsRetired counts home log entries dropped
	// past the log cap. All zero outside PolicyRC.
	RCTwins        int
	RCDiffsSent    int
	RCDiffBytes    int
	RCDiffsApplied int
	RCPulls        int
	RCGrantDiffs   int
	RCDiffsRetired int
	// Messages counts protocol messages sent by this host, by kind —
	// §3.1's raw material for comparing manager schemes, indexed by
	// kind. Snapshot filled by Stats().
	Messages [proto.NumKinds]int
}

// Add folds o into s: counters add, ChainMax is a maximum, message
// counts add per kind. Every numeric field of Stats must appear here;
// TestStatsAddCoversEveryField fails on a counter that was forgotten.
func (s *Stats) Add(o Stats) {
	s.ReadFaults += o.ReadFaults
	s.WriteFaults += o.WriteFaults
	s.PagesFetched += o.PagesFetched
	s.PagesServed += o.PagesServed
	s.Upgrades += o.Upgrades
	s.InvalidationsSent += o.InvalidationsSent
	s.InvalidationsReceived += o.InvalidationsReceived
	s.Conversions += o.Conversions
	s.ConvReport.Add(o.ConvReport)
	s.BytesFetched += o.BytesFetched
	s.RemoteReads += o.RemoteReads
	s.RemoteWrites += o.RemoteWrites
	s.UpdateWrites += o.UpdateWrites
	s.UpdatePushes += o.UpdatePushes
	s.UpdatesApplied += o.UpdatesApplied
	s.PagesRecovered += o.PagesRecovered
	s.PagesLost += o.PagesLost
	s.QuorumReads += o.QuorumReads
	s.QuorumWrites += o.QuorumWrites
	s.QuorumWriteBacks += o.QuorumWriteBacks
	s.QuorumRetries += o.QuorumRetries
	s.QuorumDiffPushes += o.QuorumDiffPushes
	s.QuorumImagePushes += o.QuorumImagePushes
	s.Forwards += o.Forwards
	s.ChainServes += o.ChainServes
	s.ChainHops += o.ChainHops
	s.ChainMax = max(s.ChainMax, o.ChainMax)
	s.RCTwins += o.RCTwins
	s.RCDiffsSent += o.RCDiffsSent
	s.RCDiffBytes += o.RCDiffBytes
	s.RCDiffsApplied += o.RCDiffsApplied
	s.RCPulls += o.RCPulls
	s.RCGrantDiffs += o.RCGrantDiffs
	s.RCDiffsRetired += o.RCDiffsRetired
	for k, n := range o.Messages {
		s.Messages[k] += n
	}
}

// Module is one host's DSM engine.
type Module struct {
	k     *sim.Kernel
	id    HostID
	arch  arch.Arch
	ep    *remoteop.Endpoint
	cfg   *Config
	hosts []arch.Arch // cluster map indexed by HostID

	local map[PageNo]*localPage
	mgr   map[PageNo]*mgrEntry
	meta  map[PageNo]pageMeta
	// faultLock serializes local fault handling per page so concurrent
	// threads on a multiprocessor host fault once, not N times.
	faultLocks map[PageNo]*sim.Semaphore

	// protoCPU serializes this host's protocol-side processing
	// (manager, owner, invalidation, central-server work): a real
	// host's fault-handling engine works one request at a time, which
	// is what makes a centralized manager a bottleneck under load.
	protoCPU *sim.Resource

	alloc *allocator // non-nil only on the allocation manager (host 0)
	stats Stats
	// check, when attached, validates the global protocol invariants at
	// every traced protocol transition (see trace and check.go).
	check *InvariantChecker

	// engine is the coherence policy's replication strategy, decl what
	// it declared about itself (invariants, hash section, oracle, sync
	// hooks); dir is the manager-placement scheme. All are fixed at New
	// (engine.go, directory.go); state private to one engine lives in
	// that engine.
	engine engine
	decl   engineDecl
	dir    directory
	// dyn holds per-page probable-owner state; non-nil only under the
	// dynamic directory (dynamic.go).
	dyn map[PageNo]*dynPage

	// liveness is the attached failure detector; nil (the default)
	// means no failure detection: no host is ever declared dead, and a
	// failed call reaches the application as an error all the same.
	liveness *Detector
}

// New creates the DSM module for one host and registers its protocol
// handlers on the endpoint. hosts maps every HostID in the cluster to
// its architecture. Host 0 additionally runs the allocation manager.
func New(k *sim.Kernel, ep *remoteop.Endpoint, cfg *Config, hosts []arch.Arch) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	id := ep.ID()
	if int(id) >= len(hosts) {
		return nil, fmt.Errorf("dsm: host %d outside cluster of %d", id, len(hosts))
	}
	m := &Module{
		k:          k,
		id:         id,
		arch:       hosts[id],
		ep:         ep,
		cfg:        cfg,
		hosts:      hosts,
		local:      make(map[PageNo]*localPage),
		mgr:        make(map[PageNo]*mgrEntry),
		meta:       make(map[PageNo]pageMeta),
		faultLocks: make(map[PageNo]*sim.Semaphore),
		protoCPU:   sim.NewResource(k, 1).Ranked(rankProtoCPU, "protoCPU"),
	}
	// The engine and the directory each register the proto.Kind handlers
	// they serve; only the kinds every configuration shares — the
	// delivery and invalidation legs of a page transfer, allocation, the
	// lock-free recovery probe — are registered here.
	m.engine, m.decl = newEngine(m)
	m.dir = newDirectory(m)
	if id == 0 {
		m.alloc = newAllocator(cfg)
	}
	ep.HandleEvent(proto.KindPageDeliver, remoteop.EventHandler{Reply: m.handlePageDeliver})
	ep.HandleEvent(proto.KindInvalidate, remoteop.EventHandler{Charge: m.invalidateCharge, Reply: m.handleInvalidate})
	ep.HandleEvent(proto.KindPageMeta, remoteop.EventHandler{Reply: m.handlePageMeta})
	ep.Handle(proto.KindAlloc, m.handleAlloc)
	ep.Handle(proto.KindRecoverPage, m.handleRecoverPage)
	return m, nil
}

// AttachLiveness connects a failure detector: dead hosts make calls
// fail fast with typed errors, and every declared death triggers the
// copyset recovery sweep on this host (see recovery.go).
func (m *Module) AttachLiveness(d *Detector) {
	m.liveness = d
	d.OnDeath(m.onHostDeath)
}

// exitIfCrashed unwinds the calling process if this host has crashed
// (its endpoint's Crash, crash-stop): a dead machine's threads simply
// cease, and its memory and manager state are gone for protocol
// purposes.
func (m *Module) exitIfCrashed(p *sim.Proc) {
	if m.ep.Crashed() {
		p.Exit()
	}
}

// Lost reports whether the page has been declared lost. It must only
// be called on the page's manager host.
func (m *Module) Lost(page PageNo) bool {
	if ent := m.mgr[page]; ent != nil {
		return ent.lost
	}
	return false
}

// ID returns the host this module serves.
func (m *Module) ID() HostID { return m.id }

// Arch returns the host's architecture.
func (m *Module) Arch() arch.Arch { return m.arch }

// Stats returns a snapshot of the host's DSM counters.
func (m *Module) Stats() Stats {
	s := m.stats
	s.Messages = m.ep.MessageCounts()
	return s
}

// NumPages returns the number of DSM pages in the space.
func (m *Module) NumPages() int { return m.cfg.SpaceSize / m.cfg.PageSize }

// PageOf returns the DSM page containing addr.
func (m *Module) PageOf(addr Addr) PageNo { return PageNo(int(addr) / m.cfg.PageSize) }

// Manager returns the fixed manager of a page — useful for tests and
// fault harnesses that place work relative to a page's manager. It
// panics under the dynamic directory, which has no managers.
func (m *Module) Manager(page PageNo) HostID { return m.manager(page) }

// manager returns the page's manager host per the directory scheme:
// distributed round-robin by default, host 0 under the centralized
// ablation.
func (m *Module) manager(page PageNo) HostID {
	return m.dir.home(page)
}

// base returns the DSM virtual base address for a machine kind.
func (m *Module) base(k arch.Kind) uint32 { return bases[k] }

// Base returns this host's DSM virtual base address; typed pointer
// accessors add it to Addr offsets when storing pointers.
func (m *Module) Base() uint32 { return m.base(m.arch.Kind) }

// groupSize returns how many DSM pages one native VM page of this host
// spans (>1 only under the smallest page size algorithm on hosts with
// large VM pages).
func (m *Module) groupSize() int {
	g := m.arch.PageSize / m.cfg.PageSize
	if g < 1 {
		g = 1
	}
	return g
}

// localPageFor returns (creating if needed) the resident state of page.
func (m *Module) localPageFor(page PageNo) *localPage {
	lp := m.local[page]
	if lp == nil {
		lp = &localPage{data: make([]byte, m.cfg.PageSize)} // vet:ignore hot-alloc — page frames live for the run and must be zero-filled
		m.local[page] = lp
	}
	return lp
}

// mgrEntryFor returns (creating if needed) the manager state of a page
// this host manages. The initial owner of every page is the allocation
// manager (host 0), which is granted a zero-filled writable copy of
// each page when it assigns it — the allocator's first-touch ownership.
func (m *Module) mgrEntryFor(page PageNo) *mgrEntry {
	if m.manager(page) != m.id {
		panic(fmt.Sprintf("dsm: host %d asked for manager entry of page %d managed by %d", m.id, page, m.manager(page)))
	}
	ent := m.mgr[page]
	if ent == nil {
		ent = &mgrEntry{pageTxn: newPageTxn(m.k)}
		m.mgr[page] = ent
		if m.id == 0 {
			// Manager and allocation manager coincide: ensure the
			// fresh page is resident (it normally already is, granted
			// at allocation time).
			lp := m.localPageFor(page)
			if lp.access == NoAccess {
				lp.access = WriteAccess
			}
		}
	}
	return ent
}

// faultLockFor returns the local fault-serialization lock of a page.
func (m *Module) faultLockFor(page PageNo) *sim.Semaphore {
	l := m.faultLocks[page]
	if l == nil {
		l = sim.NewSemaphore(m.k, 1).Ranked(rankFaultLock, "fault lock")
		m.faultLocks[page] = l
	}
	return l
}

// metaFor returns the allocation record of a page.
func (m *Module) metaFor(page PageNo) (pageMeta, bool) {
	mt, ok := m.meta[page]
	return mt, ok
}

// jittered perturbs a processing cost by the configured per-request
// jitter (zero by default).
func (m *Module) jittered(d sim.Duration) sim.Duration {
	j := m.cfg.Params.ProcessJitterPct
	if j <= 0 {
		return d
	}
	f := 1 + j*(2*m.k.Rand().Float64()-1)
	return sim.Duration(float64(d) * f)
}

// trace is the module's one observation tap: the protocol transition
// named event concerning page just completed. It emits the event to
// Config.Trace, if set, then has the attached invariant checker, if
// any, audit the page.
func (m *Module) trace(event string, page PageNo) {
	if m.cfg.Trace != nil {
		m.cfg.Trace(TraceEvent{Time: m.k.Now(), Host: m.id, Event: event, Page: page})
	}
	if m.check != nil {
		m.check.at(event, page)
	}
}

// hasAccess reports whether the page is resident with sufficient rights.
func (m *Module) hasAccess(page PageNo, write bool) bool {
	lp := m.local[page]
	if lp == nil {
		return false
	}
	if write {
		return lp.access == WriteAccess
	}
	return lp.access >= ReadAccess
}

// Access returns the host's current access to a page (for tests and
// statistics displays).
func (m *Module) Access(page PageNo) Access {
	if lp := m.local[page]; lp != nil {
		return lp.access
	}
	return NoAccess
}
