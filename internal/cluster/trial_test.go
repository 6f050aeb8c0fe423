package cluster

import (
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/proto"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// The judge mc and chaos share must not let a dropped request pass: a
// run whose every other oracle is green is still not OK when a host
// received a kind nobody in the configuration serves.
func TestDriveJudgesUnhandledRequests(t *testing.T) {
	for _, tc := range []struct {
		stray bool
		want  Outcome
	}{{false, OK}, {true, Unhandled}} {
		rec := sctrace.NewRecorder()
		c, err := New(Config{
			Hosts:           []HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}},
			Seed:            1,
			InvariantChecks: true,
			SCTrace:         rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		trial := &Trial{C: c, Rec: rec, Main: func(p *sim.Proc, c *Cluster) error {
			if tc.stray {
				// MRSW serves no central-server reads.
				c.Hosts[0].EP.SendOneWay(p, 1, &proto.Message{Kind: proto.KindRemoteRead})
				p.Sleep(time.Second)
			}
			return nil
		}}
		v := trial.Drive("main", 10_000, "teardown")
		c.Close()
		if v.Outcome != tc.want {
			t.Errorf("stray request %v: outcome %v (%s), want %v", tc.stray, v.Outcome, v.Detail, tc.want)
		}
	}
}
