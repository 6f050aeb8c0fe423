package netsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// everyEvent is a chooser that keeps the kernel's default order but logs
// the label of every event it picks that is not a "marker": with a
// marker planted at every instant of a run, every event of the run
// meets it.
type everyEvent struct{ picked []string }

func (c *everyEvent) Choose(now sim.Time, n int, label func(int) string) int {
	for i := 0; i < n; i++ {
		if l := label(i); l != "marker" {
			c.picked = append(c.picked, fmt.Sprintf("%v %s", now, l))
			return i
		}
	}
	return 0
}

// contendedSends has host 1 send four frames while host 0 keeps the
// medium busy, with a loss window drawing from the kernel's source: from
// a process "tx" through Send, or through SendThen under tx's labels.
func contendedSends(t *testing.T, k *sim.Kernel, events bool) (*Network, *[]string) {
	n, ifcs := newNet(t, k, 3)
	n.SetFaultPlan(&FaultPlan{Loss: []Burst{{Rate: 0.25}}})
	var got []string
	ifcs[2].OnFrames("rx", func() {
		for f, ok := ifcs[2].TryRecv(); ok; f, ok = ifcs[2].TryRecv() {
			got = append(got, fmt.Sprintf("%v %v", k.Now(), f.Payload))
		}
		ifcs[2].Arm()
	})
	ifcs[2].Arm()
	k.Spawn("rival", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			if err := ifcs[0].Send(p, Frame{From: 0, To: 2, Size: 200 * (i + 1), Payload: fmt.Sprint("rival", i)}); err != nil {
				t.Error(err)
			}
		}
	})
	frame := func(i int) Frame { return Frame{From: 1, To: 2, Size: 1400 - 200*i, Payload: fmt.Sprint("tx", i)} }
	if !events {
		k.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				if err := ifcs[1].Send(p, frame(i)); err != nil {
					t.Error(err)
				}
			}
		})
		return n, &got
	}
	i := 0
	var next func(any)
	next = func(any) {
		for ; i < 4; i++ {
			later, err := ifcs[1].SendThen(frame(i), "wake:tx", "timer:tx", next, nil)
			if err != nil {
				t.Error(err)
			}
			if later {
				i++
				return
			}
		}
	}
	k.AfterNamed("wake:tx", 0, func() { next(nil) })
	return n, &got
}

func TestSendThenMakesTheEventsSendWould(t *testing.T) {
	type run struct {
		labels, got []string
		stats       Stats
	}
	do := func(events bool) run {
		k := sim.NewKernel(3)
		contendedSends(t, k, events)
		instants := []sim.Time{0}
		for k.Step() {
			if now := k.Now(); now != instants[len(instants)-1] {
				instants = append(instants, now)
			}
		}
		k = sim.NewKernel(3)
		ch := &everyEvent{}
		k.SetChooser(ch)
		for _, at := range instants {
			k.AfterNamed("marker", sim.Duration(at), func() {})
		}
		n, got := contendedSends(t, k, events)
		k.Run()
		return run{ch.picked, *got, n.Stats()}
	}
	proc, ev := do(false), do(true)
	if !slices.Equal(ev.labels, proc.labels) {
		t.Errorf("SendThen dispatched\n%s\nSend\n%s", strings.Join(ev.labels, "\n"), strings.Join(proc.labels, "\n"))
	}
	if !slices.Equal(ev.got, proc.got) || ev.stats != proc.stats {
		t.Errorf("SendThen delivered %q with %+v, Send %q with %+v", ev.got, ev.stats, proc.got, proc.stats)
	}
	if proc.stats.FramesDropped == 0 || !slices.ContainsFunc(proc.labels, func(l string) bool { return strings.HasSuffix(l, " wake:tx") && !strings.HasPrefix(l, "0s ") }) {
		t.Fatalf("the run neither dropped a frame nor made tx wait for the medium: %+v\n%s", proc.stats, strings.Join(proc.labels, "\n"))
	}
}
