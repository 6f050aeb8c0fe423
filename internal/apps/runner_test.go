package apps_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps/matmul"
	"repro/internal/apps/pcb"
	"repro/internal/apps/sor"
	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/proto"
)

// TestRunRefusals: a run whose shared data the space cannot hold ends
// with the allocator's error and a zero result before any worker is
// created, and a PCB run that has no board or no slave to stripe it
// over is rejected. The 64 KB space holds eight 8 KB pages, so each
// application's first array fits and a later one does not.
func TestRunRefusals(t *testing.T) {
	slaves := []cluster.HostID{1, 2}
	const noSpace = "dsm: out of shared memory"
	const badBoard = "pcb: need positive dimensions and at least one slave"
	cases := []struct {
		name string
		run  func(c *cluster.Cluster) (any, error)
		want string
	}{
		{"matmul B beyond the space", func(c *cluster.Cluster) (any, error) {
			return matmul.Register(c).Run(matmul.Config{N: 100, Master: 0, Slaves: slaves})
		}, noSpace},
		{"pcb flaw image beyond the space", func(c *cluster.Cluster) (any, error) {
			return pcb.Register(c).Run(pcb.Config{W: 128, H: 256, Master: 0, Slaves: slaves})
		}, noSpace},
		{"sor second grid beyond the space", func(c *cluster.Cluster) (any, error) {
			return sor.Register(c).Run(sor.Config{W: 64, H: 160, Iters: 1, Master: 0, Slaves: slaves})
		}, noSpace},
		{"pcb W=0", func(c *cluster.Cluster) (any, error) {
			return pcb.Register(c).Run(pcb.Config{W: 0, H: 16, Slaves: slaves})
		}, badBoard},
		{"pcb H<0", func(c *cluster.Cluster) (any, error) {
			return pcb.Register(c).Run(pcb.Config{W: 16, H: -1, Slaves: slaves})
		}, badBoard},
		{"pcb no slaves", func(c *cluster.Cluster) (any, error) {
			return pcb.Register(c).Run(pcb.Config{W: 16, H: 16})
		}, badBoard},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := cluster.New(cluster.Config{
				Hosts:     []cluster.HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}, {Kind: arch.Firefly}},
				Seed:      1,
				PageSize:  8192,
				SpaceSize: 64 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			res, err := tc.run(c)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("error %v, want %q", err, tc.want)
			}
			if !reflect.ValueOf(res).IsZero() {
				t.Errorf("refused run returned %+v, want a zero result", res)
			}
			for _, h := range c.Hosts {
				if n := h.EP.MessageCounts()[proto.KindThreadCreate]; n != 0 {
					t.Errorf("host %d sent %d thread creations", h.ID, n)
				}
			}
		})
	}
}
