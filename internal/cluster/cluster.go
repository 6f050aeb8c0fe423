// Package cluster assembles the simulated heterogeneous cluster: hosts
// (each with CPUs, a network interface, a remote-operation endpoint, a
// DSM module, a thread manager and a synchronization service) attached
// to one shared Ethernet, all driven by one deterministic simulation
// kernel — the Mermaid system of Figure 1 of the paper, instantiated per
// host.
package cluster

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/dsync"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/remoteop"
	"repro/internal/sctrace"
	"repro/internal/sim"
	"repro/internal/threads"
)

// HostID aliases the network host identifier.
type HostID = remoteop.HostID

// HostSpec describes one host to build.
type HostSpec struct {
	// Kind is the machine type (Sun or Firefly).
	Kind arch.Kind
	// CPUs is the processor count (1 for a Sun; 1–7 for a Firefly).
	// Zero means 1.
	CPUs int
}

// Config describes a cluster.
type Config struct {
	// Hosts lists the machines; host 0 is also the allocation manager.
	Hosts []HostSpec
	// PageSize selects the DSM page size algorithm: 8192 implements the
	// largest page size algorithm, 1024 the smallest (§2.4). Zero means
	// 8192.
	PageSize int
	// SpaceSize is the shared address space size in bytes; zero means
	// 4 MiB.
	SpaceSize int
	// Registry is the conversion-routine table; nil builds a fresh one
	// with the basic types.
	Registry *conv.Registry
	// Params overrides the calibrated cost model; nil uses Default.
	Params *model.Params
	// Seed drives all simulation randomness.
	Seed int64
	// PreferSameKindSource enables the conversion-avoiding read-source
	// optimization (§2.3).
	PreferSameKindSource bool
	// Directory selects the manager-placement scheme (fixed distributed,
	// centralized on host 0 — the ablation of the fixed distributed
	// manager — or Li & Hudak's dynamic distributed manager). The zero
	// value is the fixed scheme.
	Directory dsm.Directory
	// Policy selects the coherence algorithm (default: MRSW).
	Policy dsm.Policy
	// UnicastInvalidate disables broadcast multicast invalidation
	// (ablation).
	UnicastInvalidate bool
	// Topology selects the network shape: nil is the paper's single
	// shared bus; a multi-segment topology places hosts on switched
	// segments (see netsim.Topology). A one-segment topology is
	// bit-identical to the bus.
	Topology *netsim.Topology
	// FaultPlan scripts deterministic faults (loss bursts, corruption,
	// duplication, partitions, host crashes) against virtual time; it is
	// the cluster's only source of injected frame loss. New rejects a
	// plan that names a host or segment the cluster lacks. Crash events
	// are applied by the cluster: the NIC goes down and every module of
	// the host stops (crash-stop; no restart).
	FaultPlan *netsim.FaultPlan
	// FailureDetection runs a failure detector on every host (virtual-
	// time heartbeats plus call-timeout escalation) and enables
	// copyset-based page recovery: crashes then surface as typed errors
	// (dsm.ErrHostDown, dsm.ErrPageLost) instead of hangs. Off by
	// default — no-fault runs spawn no detector processes and stay
	// bit-identical to earlier builds.
	FailureDetection bool
	// Trace, when set, receives DSM protocol events from every host.
	Trace func(dsm.TraceEvent)
	// InvariantChecks attaches a dsm.InvariantChecker across all hosts:
	// every protocol transition is audited against Li's global
	// invariants (unique writer, copyset accuracy, owner agreement) and
	// a violation panics. The checker is returned via Cluster.Check.
	InvariantChecks bool
	// SCTrace, when set, records every DSM access from every host for
	// offline sequential-consistency checking (internal/sctrace).
	SCTrace *sctrace.Recorder
	// Mutation injects one deliberate DSM protocol bug cluster-wide —
	// the model checker's mutation-kill harness (see dsm/mutation.go).
	Mutation dsm.Mutation
}

// Host bundles one machine's modules.
type Host struct {
	// ID is the host's network identifier.
	ID HostID
	// Arch is the host's architecture.
	Arch arch.Arch
	// EP is the remote-operation endpoint.
	EP *remoteop.Endpoint
	// DSM is the shared-memory module.
	DSM *dsm.Module
	// Threads is the thread management module.
	Threads *threads.Manager
	// Sync is the distributed synchronization service.
	Sync *dsync.Service
	// Detect is the failure detector (nil unless Config.FailureDetection).
	Detect *dsm.Detector
}

// Cluster is the assembled simulated system.
type Cluster struct {
	// K is the simulation kernel; Now(), RunFor() and friends live here.
	K *sim.Kernel
	// Net is the shared Ethernet segment.
	Net *netsim.Network
	// Hosts are the machines, indexed by HostID.
	Hosts []*Host
	// Funcs is the cluster-wide thread entry-point registry.
	Funcs *threads.Registry
	// Params is the active cost model.
	Params *model.Params
	// Registry is the active conversion table.
	Registry *conv.Registry
	// Check is the attached protocol invariant checker (nil unless
	// Config.InvariantChecks was set).
	Check *dsm.InvariantChecker
}

// New builds a cluster. Call RegisterFunc (via Funcs) and define
// synchronization primitives before Run.
func New(cfg Config) (c *Cluster, err error) {
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("cluster: no hosts")
	}
	if err := cfg.FaultPlan.Validate(len(cfg.Hosts), cfg.Topology.SegmentCount()); err != nil {
		return nil, fmt.Errorf("cluster: fault plan: %w", err)
	}
	params := model.Default()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	pageSize := cfg.PageSize
	if pageSize == 0 {
		pageSize = 8192
	}
	spaceSize := cfg.SpaceSize
	if spaceSize == 0 {
		spaceSize = 4 << 20
	}
	registry := cfg.Registry
	if registry == nil {
		registry = conv.NewRegistry()
	}

	k := sim.NewKernel(cfg.Seed)
	// Each host's detector loops start as the host is built, so a config
	// rejected at a later host must unwind the earlier ones'.
	defer func() {
		if err != nil {
			k.Shutdown()
		}
	}()
	net := netsim.NewWithTopology(k, &params, cfg.Topology)
	if !cfg.FaultPlan.Empty() {
		net.SetFaultPlan(cfg.FaultPlan)
	}
	funcs := threads.NewRegistry()

	dsmCfg := &dsm.Config{
		PageSize:             pageSize,
		SpaceSize:            spaceSize,
		Registry:             registry,
		Params:               &params,
		PreferSameKindSource: cfg.PreferSameKindSource,
		Directory:            cfg.Directory,
		Policy:               cfg.Policy,
		UnicastInvalidate:    cfg.UnicastInvalidate,
		Trace:                cfg.Trace,
		SCRecorder:           cfg.SCTrace,
		Mutation:             cfg.Mutation,
	}

	archs := make([]arch.Arch, len(cfg.Hosts))
	for i, spec := range cfg.Hosts {
		a, err := arch.ByKind(spec.Kind)
		if err != nil {
			return nil, fmt.Errorf("cluster: host %d: %w", i, err)
		}
		archs[i] = a
	}

	c = &Cluster{K: k, Net: net, Funcs: funcs, Params: &params, Registry: registry}
	for i, spec := range cfg.Hosts {
		ifc, err := net.Attach(netsim.HostID(i))
		if err != nil {
			return nil, err
		}
		ep := remoteop.New(k, ifc, spec.Kind, &params)
		mod, err := dsm.New(k, ep, dsmCfg, archs)
		if err != nil {
			return nil, err
		}
		cpus := spec.CPUs
		if cpus == 0 {
			cpus = 1
		}
		tm, err := threads.New(k, ep, spec.Kind, cpus, &params, funcs)
		if err != nil {
			return nil, err
		}
		sync := dsync.New(k, ep, spec.Kind, &params)
		// The nil guard matters: AttachModel takes an interface, and a
		// typed nil would enable the payload path for the SC policies.
		if sm := mod.SyncModel(); sm != nil {
			sync.AttachModel(sm)
		}
		var det *dsm.Detector
		if cfg.FailureDetection {
			det = dsm.NewDetector(k, ep, &params, len(cfg.Hosts))
			mod.AttachLiveness(det)
		}
		ep.Start()
		if det != nil {
			det.Start()
		}
		c.Hosts = append(c.Hosts, &Host{
			ID:      netsim.HostID(i),
			Arch:    archs[i],
			EP:      ep,
			DSM:     mod,
			Threads: tm,
			Sync:    sync,
			Detect:  det,
		})
	}
	// Scripted crashes are applied by the cluster at their virtual times:
	// the fabric downs the NIC, the modules freeze.
	if cfg.FaultPlan != nil {
		for _, ce := range cfg.FaultPlan.Crashes {
			h := HostID(ce.Host)
			k.AfterNamed(fmt.Sprintf("crash:h%d", h), sim.Duration(ce.At.Sub(k.Now())), func() {
				c.CrashHost(h)
			})
		}
	}
	// Wire thread managers together so threads can migrate (§2.2).
	peers := make([]*threads.Manager, len(c.Hosts))
	for i, h := range c.Hosts {
		peers[i] = h.Threads
	}
	for _, h := range c.Hosts {
		h.Threads.SetPeers(peers)
	}
	if cfg.InvariantChecks {
		mods := make([]*dsm.Module, len(c.Hosts))
		for i, h := range c.Hosts {
			mods[i] = h.DSM
		}
		c.Check = dsm.AttachChecker(mods...)
	}
	return c, nil
}

// DefineSemaphore declares a distributed semaphore on every host.
func (c *Cluster) DefineSemaphore(id uint32, manager HostID, initial int) {
	c.checkManager("semaphore", id, manager)
	for _, h := range c.Hosts {
		h.Sync.DefineSemaphore(id, manager, initial)
	}
}

// DefineEvent declares a distributed event on every host.
func (c *Cluster) DefineEvent(id uint32, manager HostID) {
	c.checkManager("event", id, manager)
	for _, h := range c.Hosts {
		h.Sync.DefineEvent(id, manager)
	}
}

// DefineBarrier declares a distributed barrier on every host. A
// barrier of fewer than one participant would let every arrival through.
func (c *Cluster) DefineBarrier(id uint32, manager HostID, n int) {
	c.checkManager("barrier", id, manager)
	if n < 1 {
		panic(fmt.Sprintf("cluster: barrier %d: %d participants, want at least 1", id, n))
	}
	for _, h := range c.Hosts {
		h.Sync.DefineBarrier(id, manager, n)
	}
}

// checkManager rejects a primitive whose manager is not a host of the
// cluster: every remote operation on it would retransmit forever.
func (c *Cluster) checkManager(what string, id uint32, manager HostID) {
	if manager < 0 || int(manager) >= len(c.Hosts) {
		panic(fmt.Sprintf("cluster: %s %d: manager %d is not a host of this %d-host cluster", what, id, manager, len(c.Hosts)))
	}
}

// CrashHost fails host h immediately (crash-stop): its NIC goes down,
// in-flight frames to and from it vanish, and its endpoint crashes —
// the one flag every module of the host reads, so handler processes
// unwind at their next activation and never answer again. There is no
// restart. Scripted FaultPlan crashes call this; the chaos harness and
// tests also call it directly.
func (c *Cluster) CrashHost(h HostID) {
	c.Net.SetHostDown(netsim.HostID(h), true)
	c.Hosts[h].EP.Crash()
}

// Run executes main as a simulated process on host mainHost and drives
// the simulation until it finishes, returning the virtual time it took.
// Background activity (heartbeats, persistent retransmissions) does
// not prolong the run.
func (c *Cluster) Run(mainHost HostID, main func(p *sim.Proc, h *Host)) sim.Duration {
	start := c.K.Now()
	done := false
	c.K.Spawn("main", func(p *sim.Proc) {
		main(p, c.Hosts[mainHost])
		done = true
	})
	c.K.RunUntil(func() bool { return done })
	if !done {
		panic(fmt.Sprintf("cluster: deadlock — main never finished; stalled: %v", c.K.Stalled()))
	}
	return c.K.Now().Sub(start)
}

// Close shuts the cluster's kernel down, unwinding every process
// still parked so their stacks and page frames can be collected. Read
// results first; the cluster must not be used afterwards.
func (c *Cluster) Close() { c.K.Shutdown() }

// TotalDSMStats sums DSM statistics across hosts.
func (c *Cluster) TotalDSMStats() dsm.Stats {
	var total dsm.Stats
	for _, h := range c.Hosts {
		total.Add(h.DSM.Stats())
	}
	return total
}
