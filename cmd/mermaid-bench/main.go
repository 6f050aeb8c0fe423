// Command mermaid-bench regenerates every table and figure of the
// paper's evaluation (§3) and prints each next to the published values.
//
// Usage:
//
//	mermaid-bench              # everything (figures take ~30 s)
//	mermaid-bench -only t2,f4  # a subset: t1..t4, f3..f7, thrash, ovh, abl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	only := flag.String("only", "", "comma-separated subset: t1,t2,t3,t4,f3,f4,f5,f6,f7,psweep,thrash,ovh,abl,dirs,rc,avail,scale,scale1k")
	flag.Parse()
	if err := run(os.Stdout, *only); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, only string) error {
	want := func(key string) bool {
		if only == "" {
			return true
		}
		for _, k := range strings.Split(only, ",") {
			if strings.TrimSpace(k) == key {
				return true
			}
		}
		return false
	}

	show := func(t *exp.Table) {
		fmt.Fprintln(w, t.Format())
	}

	if want("t1") {
		show(exp.Table1Table())
	}
	if want("t2") {
		show(exp.Table2Table())
	}
	if want("t3") {
		show(exp.Table3Table())
	}
	if want("t4") {
		show(exp.Table4Table())
	}
	if want("f3") {
		show(exp.Figure3Table(exp.Figure3(6)))
	}
	if want("f4") {
		show(exp.SeriesTable("Figure 4: MM, master on Sun, slaves on 1–4 Fireflies (s)", exp.Figure4(16)))
	}
	if want("f5") {
		show(exp.Figure5Table(exp.Figure5(12)))
	}
	if want("f6") {
		show(exp.Figure6Table(exp.Figure6(8)))
	}
	if want("f7") {
		show(exp.Figure7Table(exp.Figure7(8)))
	}
	if want("psweep") {
		show(exp.PageSizeSweepTable(exp.PageSizeSweep(8)))
	}
	if want("thrash") {
		show(exp.ThrashingTable(exp.Thrashing([]int{6, 8, 12}, []int64{1, 2, 3, 4, 5})))
	}
	if want("ovh") {
		show(exp.OverheadTable(exp.SingleThreadOverhead()))
	}
	if want("abl") {
		r := exp.AblationSameKindSource()
		fmt.Fprintf(w, "Ablation: %s\n", r.Name)
		fmt.Fprintf(w, "  baseline: %.1f s, %d conversions\n", r.BaselineS, r.BaselineConv)
		fmt.Fprintf(w, "  enabled:  %.1f s, %d conversions\n\n", r.TunedS, r.TunedConv)

		s := exp.SyncStyles(10)
		fmt.Fprintln(w, "Ablation: spinlock on shared memory vs distributed semaphores (§2.2)")
		fmt.Fprintf(w, "  spinlock:  %.2f s, %d page transfers\n", s.SpinlockS, s.SpinlockTransfers)
		fmt.Fprintf(w, "  semaphore: %.2f s, %d page transfers\n\n", s.SemaphoreS, s.SemaphoreTransfers)

		m := exp.ManagerPlacement()
		fmt.Fprintln(w, "Ablation: fixed distributed managers vs a central manager")
		fmt.Fprintf(w, "  distributed: %.1f s, %d transfers\n", m.DistributedS, m.DistributedTransfers)
		fmt.Fprintf(w, "  central:     %.1f s, %d transfers\n\n", m.CentralS, m.CentralTransfers)

		show(exp.AlgorithmChoiceTable(exp.AlgorithmChoice()))
		show(exp.InvalidationTable(exp.InvalidationScaling([]int{1, 3, 5, 10, 14})))
	}
	// The manager-scheme comparison and the scaling sweeps run only
	// when asked for by name: the default output is a bit-identity
	// regression gate against earlier builds and must not grow new
	// sections.
	if only != "" && want("dirs") {
		show(exp.DirectorySchemesTable(exp.DirectorySchemes()))
	}
	// rc is the §3.3 extension: the thrashing configuration rerun under
	// lazy release consistency next to its write-invalidate baseline.
	if only != "" && want("rc") {
		show(exp.ThrashingRCTable(exp.ThrashingRC([]int{6, 8, 12}, 1)))
	}
	if only != "" && want("avail") {
		show(exp.PartitionAvailabilityTable(exp.PartitionAvailability()))
	}
	// scale is the CI smoke sweep (up to 256 hosts, under the check
	// target's time budget); scale1k is the nightly full sweep with the
	// 1024-host runs.
	if only != "" && want("scale") {
		show(exp.DirectoryScalingTable(exp.DirectoryScaling([]int{16, 64, 256})))
	}
	if only != "" && want("scale1k") {
		show(exp.DirectoryScalingTable(exp.DirectoryScaling([]int{16, 64, 256, 1024})))
	}
	return nil
}
