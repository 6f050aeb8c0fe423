package dsync_test

// Adversarial-schedule coverage for the distributed synchronization
// facility: the model checker (internal/mc) drives the "sem" and
// "barrier" workloads through every schedule in a bounded space —
// every wakeup order, every delivery order of P/V and barrier traffic
// the kernel can produce. Mutual exclusion, lost wakeups (deadlock)
// and barrier round-skew are checked on each schedule by the workload
// assertions and the run classifier.

import (
	"testing"

	"repro/internal/dsm"
	"repro/internal/mc"
)

// exhaust explores workload's schedule space within budget and, unless
// under -short, requires it exhausted with exactly the report want: the
// counts of schedules, pruned branches, choice points and steps pin the
// space itself, so a change to how the facility queues or grants shows
// here even when no schedule violates anything.
func exhaust(t *testing.T, workload string, want mc.Report) {
	t.Helper()
	w, err := mc.Lookup(workload)
	if err != nil {
		t.Fatal(err)
	}
	budget := 1000
	if testing.Short() {
		budget = 150
	}
	rep, err := mc.RunDFS(w, dsm.MutNone, mc.DFSOpts{MaxSchedules: budget})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		t.Fatalf("%s under adversarial schedules: %s", workload, rep)
	}
	t.Logf("%s", rep)
	if testing.Short() {
		return
	}
	got := mc.Report{Schedules: rep.Schedules, Pruned: rep.Pruned, Frontier: rep.Frontier, MaxPoints: rep.MaxPoints, TotalSteps: rep.TotalSteps}
	if got != want {
		t.Errorf("%s schedule space %+v, want %+v", workload, got, want)
	}
}

// TestSemaphoreAdversarialWakeups exhausts the bounded schedule space
// of two hosts contending on a distributed semaphore: every wakeup
// order the manager can grant must preserve mutual exclusion (checked
// with plain Go variables, outside DSM) and eventually release every
// waiter (a lost wakeup surfaces as a deadlocked schedule).
func TestSemaphoreAdversarialWakeups(t *testing.T) {
	exhaust(t, "sem", mc.Report{Schedules: 293, Pruned: 2371, MaxPoints: 22, TotalSteps: 14661})
}

// TestBarrierAdversarialWakeups does the same for a 2-host barrier
// reused across two rounds: no released worker may ever observe its
// peer behind the round it was released from, and no arrival may be
// dropped.
func TestBarrierAdversarialWakeups(t *testing.T) {
	exhaust(t, "barrier", mc.Report{Schedules: 706, Pruned: 5128, MaxPoints: 32, TotalSteps: 24542})
}
