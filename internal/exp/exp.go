// Package exp regenerates every table and figure of the paper's
// evaluation (§3) from the simulated system. Each experiment builds a
// fresh cluster, runs the measurement, and returns structured results
// carrying both the simulated value and the paper's published value so
// harnesses (cmd/mermaid-bench, the root benchmarks, EXPERIMENTS.md) can
// compare shapes.
package exp

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/cluster"
)

// Table is a printable result table.
type Table struct {
	// Title names the artifact ("Table 2", "Figure 4", …).
	Title string
	// Header labels the columns.
	Header []string
	// Rows hold formatted cells.
	Rows [][]string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// kindName abbreviates machine kinds the way the paper's tables do.
func kindName(k arch.Kind) string {
	if k == arch.Sun {
		return "Sun"
	}
	return "Ffly"
}

// must returns v, or panics with err. Every input an experiment builds
// from is its own literal (a cluster configuration, an allocation, a
// registered type), so an error is a bug in the experiment, not an
// input error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// sunAndFireflies is the paper's representative heterogeneous host
// list: a Sun workstation (host 0, the master) plus nf Fireflies with
// cpus processors each.
func sunAndFireflies(nf, cpus int) []cluster.HostSpec {
	hosts := []cluster.HostSpec{{Kind: arch.Sun}}
	for i := 0; i < nf; i++ {
		hosts = append(hosts, cluster.HostSpec{Kind: arch.Firefly, CPUs: cpus})
	}
	return hosts
}

// sunsAroundFireflies is the four-host mix of the synchronization and
// algorithm-choice studies: a Sun at each end, two two-CPU Fireflies
// between them.
func sunsAroundFireflies() []cluster.HostSpec {
	ff := cluster.HostSpec{Kind: arch.Firefly, CPUs: 2}
	return []cluster.HostSpec{{Kind: arch.Sun}, ff, ff, {Kind: arch.Sun}}
}

// placeThreads spreads t threads over fireflies 1..nf round-robin,
// approximately balanced as in §3.2.
func placeThreads(t, nf int) []cluster.HostID {
	slaves := make([]cluster.HostID, t)
	for i := range slaves {
		slaves[i] = cluster.HostID(1 + i%nf)
	}
	return slaves
}

// firefliesFor picks how many Fireflies serve t threads: the paper used
// one to four machines with balanced thread counts (≤4 per machine
// before adding another, capped at 4 machines).
func firefliesFor(t int) int {
	nf := (t + 3) / 4
	if nf < 1 {
		nf = 1
	}
	if nf > 4 {
		nf = 4
	}
	return nf
}
