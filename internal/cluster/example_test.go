package cluster_test

// Protocol traces as executable documentation: a small heterogeneous
// matrix multiplication under each directory scheme, its first DSM
// protocol events and the per-host counters. The events include the
// invariant checker's audit points (allocated, fault-serviced,
// page-installed, transfer-complete, …), which the trace stream carries
// whether or not a checker is attached. The outputs pin the simulated
// behaviour of the write-invalidate transaction, so a refactor of the
// directory layer that moves any event fails them.

import (
	"fmt"

	"repro/internal/apps/matmul"
	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/dsm"
)

// traceMatmul runs MM2 (round-robin rows) on a 64×64 matrix with four
// slave threads over two Fireflies and a Sun master, prints the first
// maxEvents protocol events, then one line of DSM counters per host.
func traceMatmul(dir dsm.Directory, maxEvents int) {
	events := 0
	c, err := cluster.New(cluster.Config{
		Hosts: []cluster.HostSpec{
			{Kind: arch.Sun},
			{Kind: arch.Firefly, CPUs: 6},
			{Kind: arch.Firefly, CPUs: 6},
		},
		Directory: dir,
		Seed:      1,
		Trace: func(ev dsm.TraceEvent) {
			if events++; events <= maxEvents {
				fmt.Printf("host %d %9.3fms %-17s page %d\n",
					ev.Host, ev.Time.Milliseconds(), ev.Event, ev.Page)
			}
		},
	})
	if err != nil {
		panic(err)
	}
	res, err := matmul.Register(c).Run(matmul.Config{
		N:          64,
		Master:     0,
		Slaves:     []cluster.HostID{1, 2, 1, 2},
		Assignment: matmul.MM2,
		Verify:     true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d events, %.6fs virtual, correct=%v\n", events, res.Elapsed.Seconds(), res.Correct)
	fmt.Println("host kind    read-fault write-fault fetched served upgrades invalidated conv")
	for i, h := range c.Hosts {
		s := h.DSM.Stats()
		fmt.Printf("%-4d %-7v %10d %11d %7d %6d %8d %11d %4d\n",
			i, h.Arch.Kind, s.ReadFaults, s.WriteFaults, s.PagesFetched,
			s.PagesServed, s.Upgrades, s.InvalidationsReceived, s.Conversions)
	}
}

// The paper's fixed distributed manager: every fault goes to the page's
// manager (page number mod 3), which forwards it to the owner.
func Example_fixedDirectoryTrace() {
	traceMatmul(dsm.DirFixed, 40)
	// Output:
	// host 0     0.663ms allocated         page 0
	// host 0     0.663ms allocated         page 1
	// host 0     1.326ms allocated         page 2
	// host 0     1.326ms allocated         page 3
	// host 0     1.990ms allocated         page 4
	// host 0     1.990ms allocated         page 5
	// host 1     2.413ms read-fault        page 2
	// host 2     2.960ms read-fault        page 2
	// host 1     3.508ms read-fault        page 2
	// host 2     4.055ms read-fault        page 2
	// host 0    45.965ms serve             page 2
	// host 1    56.747ms fetch             page 2
	// host 1    58.747ms page-installed    page 2
	// host 1    58.747ms fault-serviced    page 2
	// host 1    58.747ms read-fault        page 3
	// host 1    58.747ms fault-serviced    page 2
	// host 1    58.747ms read-fault        page 3
	// host 2    58.864ms owner-confirmed   page 2
	// host 2    58.864ms transfer-complete page 2
	// host 0    87.789ms serve             page 2
	// host 0    98.127ms serve             page 3
	// host 2    98.571ms fetch             page 2
	// host 2   100.571ms page-installed    page 2
	// host 2   100.571ms fault-serviced    page 2
	// host 2   100.571ms read-fault        page 3
	// host 2   100.571ms fault-serviced    page 2
	// host 2   100.571ms read-fault        page 3
	// host 1   108.910ms fetch             page 3
	// host 1   110.910ms page-installed    page 3
	// host 1   110.910ms fault-serviced    page 3
	// host 1   110.910ms read-fault        page 0
	// host 1   110.910ms fault-serviced    page 3
	// host 1   110.910ms read-fault        page 0
	// host 0   111.027ms owner-confirmed   page 3
	// host 0   111.027ms transfer-complete page 3
	// host 0   143.770ms serve             page 3
	// host 0   150.384ms serve             page 0
	// host 2   154.552ms fetch             page 3
	// host 2   156.552ms page-installed    page 3
	// host 2   156.552ms fault-serviced    page 3
	// 342 events, 1.658442s virtual, correct=true
	// host kind    read-fault write-fault fetched served upgrades invalidated conv
	// 0    Sun              2           0       2     10        0           0    2
	// 1    Firefly          8          32      20     16        0           0    6
	// 2    Firefly          8          32      20     16        0           0    4
}

// Li & Hudak's dynamic distributed manager: faults chase probable-owner
// hints to the owner, which keeps the copyset itself.
func Example_dynamicDirectoryTrace() {
	traceMatmul(dsm.DirDynamic, 40)
	// Output:
	// host 0     0.663ms allocated         page 0
	// host 0     0.663ms allocated         page 1
	// host 0     1.326ms allocated         page 2
	// host 0     1.326ms allocated         page 3
	// host 0     1.990ms allocated         page 4
	// host 0     1.990ms allocated         page 5
	// host 1     2.413ms read-fault        page 2
	// host 2     2.960ms read-fault        page 2
	// host 1     3.508ms read-fault        page 2
	// host 2     4.055ms read-fault        page 2
	// host 0    41.071ms serve             page 2
	// host 1    51.853ms fetch             page 2
	// host 1    53.853ms page-installed    page 2
	// host 0    53.977ms dyn-confirmed     page 2
	// host 0    53.977ms dyn-transfer      page 2
	// host 1    54.094ms fault-serviced    page 2
	// host 1    54.094ms read-fault        page 3
	// host 1    54.094ms fault-serviced    page 2
	// host 1    54.094ms read-fault        page 3
	// host 0    86.954ms serve             page 2
	// host 0    93.568ms serve             page 3
	// host 2    97.736ms fetch             page 2
	// host 2    99.736ms page-installed    page 2
	// host 0    99.860ms dyn-confirmed     page 2
	// host 0    99.860ms dyn-transfer      page 2
	// host 2    99.977ms fault-serviced    page 2
	// host 2    99.977ms read-fault        page 3
	// host 2    99.977ms fault-serviced    page 2
	// host 2    99.977ms read-fault        page 3
	// host 1   104.350ms fetch             page 3
	// host 1   106.350ms page-installed    page 3
	// host 0   106.474ms dyn-confirmed     page 3
	// host 0   106.474ms dyn-transfer      page 3
	// host 1   106.591ms fault-serviced    page 3
	// host 1   106.591ms read-fault        page 0
	// host 1   106.591ms fault-serviced    page 3
	// host 1   106.591ms read-fault        page 0
	// host 0   139.595ms serve             page 3
	// host 0   146.209ms serve             page 0
	// host 2   150.377ms fetch             page 3
	// 382 events, 1.700286s virtual, correct=true
	// host kind    read-fault write-fault fetched served upgrades invalidated conv
	// 0    Sun              2           0       2     10        0           0    2
	// 1    Firefly          8          32      20     16        0           0    6
	// 2    Firefly          8          32      20     16        0           0    4
}
