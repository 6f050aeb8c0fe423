package dsm

import (
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

// detRig builds n hosts with endpoints and started detectors — no DSM
// modules, the detector is exercised in isolation.
func detRig(t *testing.T, n int) (*sim.Kernel, *netsim.Network, []*Detector) {
	t.Helper()
	k := sim.NewKernel(7)
	params := model.Default()
	net := netsim.New(k, &params)
	dets := make([]*Detector, n)
	for i := 0; i < n; i++ {
		ifc, err := net.Attach(netsim.HostID(i))
		if err != nil {
			t.Fatal(err)
		}
		ep := remoteop.New(k, ifc, arch.Sun, &params)
		dets[i] = NewDetector(k, ep, &params, n)
		ep.Start()
		dets[i].Start()
	}
	return k, net, dets
}

func TestDetectorKeepsQuietClusterAlive(t *testing.T) {
	k, _, dets := detRig(t, 3)
	k.RunFor(10 * time.Second)
	for i, d := range dets {
		for h := 0; h < 3; h++ {
			if s := d.State(HostID(h)); s != StateAlive {
				t.Errorf("detector %d sees host %d as %v after 10 s of heartbeats", i, h, s)
			}
		}
	}
}

func TestDetectorDeclaresSilentHostDead(t *testing.T) {
	params := model.Default()
	k, net, dets := detRig(t, 3)
	var died []HostID
	var at sim.Time
	dets[0].OnDeath(func(h HostID) { died = append(died, h); at = k.Now() })

	crash := sim.Time(2 * time.Second)
	k.AfterNamed("crash", 2*time.Second, func() {
		net.SetHostDown(2, true)
		dets[2].ep.Crash()
	})
	k.RunFor(20 * time.Second)

	if len(died) != 1 || died[0] != 2 {
		t.Fatalf("death callbacks = %v, want exactly [2]", died)
	}
	if !dets[0].Dead(2) || dets[1].State(2) != StateDead {
		t.Fatal("survivors disagree that host 2 is dead")
	}
	if dets[0].Dead(1) || dets[1].Dead(0) {
		t.Fatal("a live host was declared dead")
	}
	// Detection latency: silence must cross 2×SuspicionTimeout, and not
	// take an order of magnitude longer.
	latency := at.Sub(crash)
	if latency < sim.Duration(2*params.SuspicionTimeout) || latency > sim.Duration(4*params.SuspicionTimeout) {
		t.Fatalf("detection latency %v outside [2×, 4×] SuspicionTimeout", latency)
	}
}

func TestDetectorEscalationShortcut(t *testing.T) {
	// Repeated call-timeout escalations must move a host to suspect, and
	// with continued silence to dead — without waiting for the full
	// heartbeat audit alone. DeclareDead forces the terminal state.
	k, _, dets := detRig(t, 2)
	k.Spawn("escalate", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		dets[0].Escalate(1)
		if got := dets[0].State(1); got != StateSuspect {
			t.Errorf("state after escalation = %v, want suspect", got)
		}
		dets[0].DeclareDead(1)
		if !dets[0].Dead(1) {
			t.Error("DeclareDead did not kill")
		}
		// Crash-stop: later heartbeats must not resurrect the host.
		p.Sleep(2 * time.Second)
		if !dets[0].Dead(1) {
			t.Error("a heartbeat resurrected a declared-dead host")
		}
	})
	k.RunFor(5 * time.Second)
}

func TestDetectorDeathCallbackFiresOnce(t *testing.T) {
	k, net, dets := detRig(t, 2)
	calls := 0
	dets[0].OnDeath(func(h HostID) { calls++ })
	k.Spawn("kill", func(p *sim.Proc) {
		p.Sleep(time.Second)
		net.SetHostDown(1, true)
		dets[1].ep.Crash()
		p.Sleep(10 * time.Second)
		dets[0].DeclareDead(1) // already dead: must be a no-op
		dets[0].Escalate(1)
	})
	k.RunFor(30 * time.Second)
	if calls != 1 {
		t.Fatalf("death callback fired %d times, want 1", calls)
	}
}
