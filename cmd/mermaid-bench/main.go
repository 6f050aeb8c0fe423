// Command mermaid-bench regenerates every table and figure of the
// paper's evaluation (§3) and prints each next to the published values.
//
// Usage:
//
//	mermaid-bench              # every section but the by-name ones
//	mermaid-bench -only t2,f4  # the named sections, in the order given
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/namelist"
)

func main() {
	only := flag.String("only", "", "comma-separated sections to print, or all: "+strings.Join(sectionNames(), ","))
	flag.Parse()
	if err := run(os.Stdout, *only); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// section is one named block of the report.
type section struct {
	name string
	// byName sections print only when -only names them: the default
	// output is a bit-identity regression gate against earlier builds
	// (TestGolden) and must not grow new sections.
	byName bool
	print  func(w io.Writer)
}

func show(w io.Writer, t *exp.Table) { fmt.Fprintln(w, t.Format()) }

// sections lists the report in print order.
var sections = []section{
	{name: "t1", print: func(w io.Writer) { show(w, exp.Table1Table()) }},
	{name: "t2", print: func(w io.Writer) { show(w, exp.Table2Table()) }},
	{name: "t3", print: func(w io.Writer) { show(w, exp.Table3Table()) }},
	{name: "t4", print: func(w io.Writer) { show(w, exp.Table4Table()) }},
	{name: "f3", print: func(w io.Writer) { show(w, exp.Figure3Table(exp.Figure3(6))) }},
	{name: "f4", print: func(w io.Writer) {
		show(w, exp.SeriesTable("Figure 4: MM, master on Sun, slaves on 1–4 Fireflies (s)", exp.Figure4(16)))
	}},
	{name: "f5", print: func(w io.Writer) { show(w, exp.Figure5Table(exp.Figure5(12))) }},
	{name: "f6", print: func(w io.Writer) { show(w, exp.Figure6Table(exp.Figure6(8))) }},
	{name: "f7", print: func(w io.Writer) { show(w, exp.Figure7Table(exp.Figure7(8))) }},
	{name: "psweep", print: func(w io.Writer) { show(w, exp.PageSizeSweepTable(exp.PageSizeSweep(8))) }},
	{name: "thrash", print: func(w io.Writer) {
		show(w, exp.ThrashingTable(exp.Thrashing([]int{6, 8, 12}, []int64{1, 2, 3, 4, 5})))
	}},
	{name: "ovh", print: func(w io.Writer) { show(w, exp.OverheadTable(exp.SingleThreadOverhead())) }},
	{name: "abl", print: printAblations},
	{name: "dirs", byName: true, print: func(w io.Writer) {
		show(w, exp.DirectorySchemesTable(exp.DirectorySchemes()))
	}},
	// rc is the §3.3 extension: the thrashing configuration rerun under
	// lazy release consistency next to its write-invalidate baseline.
	{name: "rc", byName: true, print: func(w io.Writer) {
		show(w, exp.ThrashingRCTable(exp.ThrashingRC([]int{6, 8, 12}, 1)))
	}},
	{name: "avail", byName: true, print: func(w io.Writer) {
		show(w, exp.PartitionAvailabilityTable(exp.PartitionAvailability()))
	}},
	// scale1k is the directory-scaling sweep from 16 to 1024 hosts.
	{name: "scale1k", byName: true, print: func(w io.Writer) {
		show(w, exp.DirectoryScalingTable(exp.DirectoryScaling([]int{16, 64, 256, 1024})))
	}},
}

func sectionNames() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return names
}

func lookupSection(name string) (section, error) {
	name = strings.TrimSpace(name)
	for _, s := range sections {
		if s.name == name {
			return s, nil
		}
	}
	return section{}, fmt.Errorf("mermaid-bench: unknown section %q (have %v)", name, sectionNames())
}

// run prints the sections only names (a name, a comma list, or all), or
// with only empty every section not marked byName.
func run(w io.Writer, only string) error {
	if only == "" {
		for _, s := range sections {
			if !s.byName {
				s.print(w)
			}
		}
		return nil
	}
	chosen, err := namelist.Resolve(only, sections, lookupSection)
	if err != nil {
		return err
	}
	for _, s := range chosen {
		s.print(w)
	}
	return nil
}

func printAblations(w io.Writer) {
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

	show(w, exp.AlgorithmChoiceTable(exp.AlgorithmChoice()))
	show(w, exp.InvalidationTable(exp.InvalidationScaling([]int{1, 3, 5, 10, 14})))
}
