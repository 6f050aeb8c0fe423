package cluster

// One workload table and one drive-and-judge for the verification
// harnesses. The model checker (internal/mc) controls schedules and the
// fault injector (internal/chaos) controls fault plans, but a run of
// either is the same thing: a Workload row built on the harness's base
// Config, then Cluster.Run with an event budget and the panic recovered,
// then every oracle's verdict ranked into one Outcome.

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/dsm"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// Outcome classifies one judged run. The constants are declared in the
// order Drive ranks them: a run that trips several oracles is reported
// under the first.
type Outcome int

const (
	// OK means every oracle and every workload assertion passed.
	OK Outcome = iota
	// InvariantViolation means the MRSW protocol invariant checker
	// tripped (stale copy, double writer, owner disagreement, …).
	InvariantViolation
	// SCViolation means the offline trace check found a read the
	// policy's consistency model cannot explain.
	SCViolation
	// Panic means a simulated process panicked: a plain accessor or
	// primitive whose access failed (its E twin returns the same
	// error), or a broken invariant.
	Panic
	// Unhandled means a request reached a host with no handler
	// registered for its kind and was dropped (remoteop.Stats.Unhandled):
	// the configuration sends a kind nobody in it serves. It ranks below
	// Panic because the requester's timed-out call usually reaches a
	// plain accessor's panic first.
	Unhandled
	// Deadlock means the event queue drained before the workload
	// finished.
	Deadlock
	// Livelock means the step budget ran out (endless retransmission
	// keeps the queue busy forever).
	Livelock
	// Hung is how chaos reports Deadlock and Livelock alike: with
	// heartbeats running the queue never drains, so the distinction
	// says nothing about a wedged workload there.
	Hung
	// AppError means the workload's own final assertions failed (wrong
	// computation result).
	AppError

	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	OK:                 "ok",
	InvariantViolation: "invariant-violation",
	SCViolation:        "sc-violation",
	Panic:              "panic",
	Unhandled:          "unhandled-request",
	Deadlock:           "deadlock",
	Livelock:           "livelock",
	Hung:               "hung",
	AppError:           "app-error",
}

// String names the outcome.
func (o Outcome) String() string {
	if o >= 0 && o < numOutcomes {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Workload is one verification scenario declared as data: its program
// (Main) and judge (Main's verdict on the final state), the machines it
// runs on, and what it changes in the cluster. A harness supplies only
// the base Config its schedules or faults need and builds a fresh Trial
// from the row for every run; rows hold no state of their own.
type Workload struct {
	// Name is the CLI spelling and the replay-token component.
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Kinds lists the machines, host 0 first.
	Kinds []arch.Kind
	// Tune, if set, edits the harness's base config before the cluster
	// is built: the engine, directory, topology or failure detection a
	// row checks, or an edit of cfg.FaultPlan derived from cfg.Seed.
	Tune func(*Config)
	// Define, if set, declares the synchronization primitives Main uses.
	Define func(c *Cluster)
	// Main is the body, run as the root simulated process. It returns
	// the workload's own verdict on the final state (nil = all
	// application-level assertions passed).
	Main func(p *sim.Proc, c *Cluster) error
}

// Trial builds a fresh Trial of w on base: one host per Kinds entry,
// the invariant checker attached and a new SC recorder wired, then
// w.Tune, New and w.Define.
func (w *Workload) Trial(base Config) (*Trial, error) {
	cfg := base
	cfg.Hosts = make([]HostSpec, len(w.Kinds))
	for i, k := range w.Kinds {
		cfg.Hosts[i] = HostSpec{Kind: k}
	}
	rec := sctrace.NewRecorder()
	cfg.InvariantChecks, cfg.SCTrace = true, rec
	if w.Tune != nil {
		w.Tune(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if w.Define != nil {
		w.Define(c)
	}
	return &Trial{C: c, Rec: rec, Main: w.Main}, nil
}

// Trial is one freshly built, not-yet-run verification scenario: a
// cluster with the invariant checker attached and an SC recorder wired
// in, plus the workload body. Each run builds a new Trial.
type Trial struct {
	// C is the assembled cluster (checker attached, recorder wired).
	C *Cluster
	// Rec records the run's DSM accesses for the offline trace check.
	Rec *sctrace.Recorder
	// Main is the workload body (Workload.Main).
	Main func(p *sim.Proc, c *Cluster) error
}

// Verdict is Drive's judgment of one run; each harness's Result embeds
// it.
type Verdict struct {
	// Outcome classifies the run; Detail explains a non-OK outcome.
	Outcome Outcome
	Detail  string
	// Steps is the number of kernel events dispatched.
	Steps int
}

// Drive runs t.Main as the root simulated process called name (the name
// labels the model checker's choice points) for at most maxSteps kernel
// events and judges the run: invariant violations (recorded, not
// panicked), the trace oracle, a recovered process panic, requests
// dropped for want of a handler, a main that never finished, and
// finally the workload's own error. A non-empty audit labels one last
// CheckAll of a run that finished without panicking (it skips crashed
// hosts and in-flight transactions). The kernel is left as the run left
// it so the caller can read final state; the caller shuts it down.
func (t *Trial) Drive(name string, maxSteps int, audit string) Verdict {
	c, k := t.C, t.C.K
	if c.Check == nil {
		panic("cluster: trial built without the invariant checker")
	}
	var invs []dsm.Violation
	c.Check.SetFailHandler(func(v dsm.Violation) { invs = append(invs, v) })

	done := false
	var appErr error
	k.Spawn(name, func(p *sim.Proc) {
		appErr = t.Main(p, c)
		done = true
	})
	v := Verdict{}
	panicMsg := ""
	before := k.Counts().Events
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicMsg = fmt.Sprint(r)
				// The event that panicked is not a step taken.
				v.Steps = int(k.Counts().Events-before) - 1
			}
		}()
		v.Steps = k.RunSteps(maxSteps, func() bool { return done })
	}()
	if audit != "" && done && panicMsg == "" {
		c.Check.CheckAll(audit)
	}
	// The trace oracle is the policy's consistency model: the SC
	// witness checker for the sequentially consistent engines, the
	// happens-before checker under lazy release consistency.
	traceViols := c.Hosts[0].DSM.TraceCheck(t.Rec.Ops())
	unhandled := 0
	for _, h := range c.Hosts {
		unhandled += h.EP.Stats().Unhandled
	}
	switch {
	case len(invs) > 0:
		v.Outcome = InvariantViolation
		v.Detail = invs[0].String()
		if len(invs) > 1 {
			v.Detail += fmt.Sprintf(" (+%d more)", len(invs)-1)
		}
	case len(traceViols) > 0:
		v.Outcome = SCViolation
		v.Detail = strings.TrimSpace(sctrace.Report(traceViols, 3))
	case panicMsg != "":
		v.Outcome = Panic
		v.Detail = panicMsg
	case unhandled > 0:
		v.Outcome = Unhandled
		v.Detail = fmt.Sprintf("%d request(s) dropped on arrival: no handler registered for their kind", unhandled)
	case !done && v.Steps >= maxSteps:
		v.Outcome = Livelock
		v.Detail = fmt.Sprintf("step budget of %d exhausted at t=%v; stalled: %v", maxSteps, k.Now(), k.Stalled())
	case !done:
		v.Outcome = Deadlock
		v.Detail = fmt.Sprintf("event queue drained; stalled: %v", k.Stalled())
	case appErr != nil:
		v.Outcome = AppError
		v.Detail = appErr.Error()
	}
	return v
}
