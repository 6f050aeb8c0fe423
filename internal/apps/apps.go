// Package apps is the master/worker scaffolding the paper's
// applications share (§3.2): a master sets up the shared data, creates
// one worker thread per slave host, waits for each through a
// distributed semaphore, and reads the result back through the DSM.
// matmul, pcb and sor supply only their data, their worker body and
// their check.
package apps

import (
	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Result reports one application run.
type Result struct {
	// Elapsed is the virtual response time of the whole computation,
	// measured at the master as in the paper's figures.
	Elapsed sim.Duration
	// Correct is false if the application's check failed.
	Correct bool
	// Stats aggregates DSM counters across all hosts.
	Stats dsm.Stats
}

// Register defines semaphore done (managed by host 0, initially 0) and
// registers entry point fn: worker idx runs work(t, host, idx), then Vs
// done — its last step, which is how the master learns it finished.
// Applications in one process must not collide on fn or done.
func Register(c *cluster.Cluster, fn threads.FuncID, done uint32, work func(t *threads.Thread, h *cluster.Host, idx int)) {
	c.DefineSemaphore(done, 0, 0)
	c.Funcs.MustRegister(fn, func(t *threads.Thread, args []uint32) {
		h := c.Hosts[t.Host()]
		work(t, h, int(args[0]))
		h.Sync.V(t.P, done)
	})
}

// Run is the master's part of one run on master: setup allocates and
// fills the shared data; worker i is created on slaves[i], in order;
// the master Ps done once per slave, then finish reads the result back
// and reports whether it is correct. The error is the first one from
// setup or from a thread creation, with a zero Result.
func Run(c *cluster.Cluster, master cluster.HostID, slaves []cluster.HostID, fn threads.FuncID, done uint32,
	setup func(p *sim.Proc, h *cluster.Host) error, finish func(p *sim.Proc, h *cluster.Host) bool) (Result, error) {
	var (
		res Result
		err error
	)
	elapsed := c.Run(master, func(p *sim.Proc, h *cluster.Host) {
		if err = setup(p, h); err != nil {
			return
		}
		for i, host := range slaves {
			if _, err = h.Threads.Create(p, host, fn, []uint32{uint32(i)}); err != nil {
				return
			}
		}
		for range slaves {
			h.Sync.P(p, done)
		}
		res.Correct = finish(p, h)
	})
	if err != nil {
		return Result{}, err
	}
	res.Elapsed = elapsed
	res.Stats = c.TotalDSMStats()
	return res, nil
}
