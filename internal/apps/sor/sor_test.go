package sor

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/model"
)

func newCluster(t *testing.T, fireflies int) *cluster.Cluster {
	t.Helper()
	hosts := []cluster.HostSpec{{Kind: arch.Sun}}
	for i := 0; i < fireflies; i++ {
		hosts = append(hosts, cluster.HostSpec{Kind: arch.Firefly, CPUs: 4})
	}
	c, err := cluster.New(cluster.Config{Hosts: hosts, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRelaxationMatchesSequential(t *testing.T) {
	c := newCluster(t, 2)
	r := Register(c)
	res, err := r.Run(Config{
		W: 64, H: 66, Iters: 8,
		Master: 0,
		Slaves: []cluster.HostID{1, 1, 2, 2},
		Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("distributed relaxation differs from sequential")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestBoundaryPagesReplicateEachIteration(t *testing.T) {
	c := newCluster(t, 2)
	r := Register(c)
	res, err := r.Run(Config{
		W: 256, H: 130, Iters: 6, // each row is one 1 KB span in 8 KB pages
		Master: 0,
		Slaves: []cluster.HostID{1, 2},
		Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("result wrong")
	}
	// Boundary rows must generate steady per-iteration traffic: at
	// least one fetch per neighbour per iteration beyond the initial
	// distribution.
	if res.Stats.PagesFetched < 2*6 {
		t.Fatalf("only %d page fetches over 6 iterations; boundary sharing unmodelled", res.Stats.PagesFetched)
	}
}

func TestMoreThreadsSpeedUpRelaxation(t *testing.T) {
	run := func(slaves []cluster.HostID) float64 {
		c := newCluster(t, 2)
		r := Register(c)
		res, err := r.Run(Config{W: 256, H: 258, Iters: 4, Master: 0, Slaves: slaves})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed.Seconds()
	}
	one := run([]cluster.HostID{1})
	four := run([]cluster.HostID{1, 1, 2, 2})
	// Stencils are communication-bound: boundary exchange and barriers
	// per iteration cap the speedup well below linear.
	if speedup := one / four; speedup < 2 {
		t.Fatalf("speedup %.2f with 4 threads, want ≥2", speedup)
	}
}

func TestMoreThreadsThanRowsStillCorrect(t *testing.T) {
	c := newCluster(t, 2)
	r := Register(c)
	res, err := r.Run(Config{
		W: 16, H: 5, Iters: 3, // 3 interior rows, 6 threads
		Master: 0,
		Slaves: []cluster.HostID{1, 1, 1, 2, 2, 2},
		Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("surplus threads corrupted the relaxation")
	}
}

func TestConfigValidation(t *testing.T) {
	c := newCluster(t, 1)
	r := Register(c)
	if _, err := r.Run(Config{W: 2, H: 10, Iters: 1, Slaves: []cluster.HostID{1}}); err == nil {
		t.Error("W=2 accepted")
	}
	if _, err := r.Run(Config{W: 10, H: 10, Iters: 0, Slaves: []cluster.HostID{1}}); err == nil {
		t.Error("0 iterations accepted")
	}
	if _, err := r.Run(Config{W: 10, H: 10, Iters: 1}); err == nil {
		t.Error("no slaves accepted")
	}
}

func TestSequentialModel(t *testing.T) {
	params := model.Default()
	ff := Sequential(&params, arch.Firefly, 100, 102, 10)
	sun := Sequential(&params, arch.Sun, 100, 102, 10)
	if ff <= 0 || sun <= ff {
		t.Fatalf("sequential model wrong: ff %v sun %v", ff, sun)
	}
}
