package exp

// The directory ablation of §3.1 at scale: the fixed, central and
// dynamic manager schemes on clusters two orders of magnitude beyond
// the paper's five hosts, on both the paper's one-segment bus and a
// switched multi-segment topology (32-host segments star-linked through
// a backbone). The workload has three phases chosen to exercise exactly
// what separates the schemes as N grows: a metadata broadcast (alloc),
// a migratory ring where every host writes once (ownership keeps moving
// away from whatever the directory recorded), and a full-copyset
// read-then-invalidate (every host holds a copy of one page when a
// single writer kills them all — the multicast-tree stress).

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// ScalingRow is one (cluster size, topology, scheme) cell of the
// directory-scaling ablation.
type ScalingRow struct {
	// Hosts is the cluster size.
	Hosts int
	// Topo names the network shape ("bus" or "switched").
	Topo string
	// Scheme names the directory ("fixed", "central", "dynamic").
	Scheme string
	// ElapsedS is the workload's simulated wall time.
	ElapsedS float64
	// Messages counts every protocol message sent cluster-wide;
	// MsgsPerHost normalizes it by cluster size.
	Messages    int
	MsgsPerHost float64
	// MaxChain is the longest probable-owner forwarding chase
	// (dynamic scheme only).
	MaxChain int
	// CrossSegFrames counts inter-segment link traversals (0 on the
	// bus) — the number the multicast trees exist to keep small.
	CrossSegFrames int
}

// scalingTopology builds the switched shape for an N-host run: 32-host
// segments (at least two segments) star-linked through segment 0.
func scalingTopology(hosts int) *netsim.Topology {
	segs := hosts / 32
	if segs < 2 {
		segs = 2
	}
	per := (hosts + segs - 1) / segs
	return netsim.SwitchedStar(segs, per)
}

// DirectoryScaling runs the three directory schemes at each cluster
// size on both topologies. Sizes beyond a few hundred hosts are the
// nightly configuration; the smoke sweep stops at 256.
func DirectoryScaling(sizes []int) []ScalingRow {
	type cell struct {
		n    int
		topo string
		dir  dsm.Directory
	}
	var cells []cell
	for _, n := range sizes {
		for _, topo := range []string{"bus", "switched"} {
			for _, dir := range directorySchemes {
				cells = append(cells, cell{n, topo, dir})
			}
		}
	}
	return sim.Each(len(cells), func(i int) ScalingRow {
		return runDirectoryScale(cells[i].n, cells[i].topo, cells[i].dir)
	})
}

func runDirectoryScale(n int, topoName string, dir dsm.Directory) ScalingRow {
	const (
		pages = 8
		per   = 256 // int32s per 1 KB page
	)
	var topo *netsim.Topology // nil is the one-segment bus
	if topoName == "switched" {
		topo = scalingTopology(n)
	}
	c := must(cluster.New(cluster.Config{Hosts: sunAndFireflies(n-1, 0), Seed: 1, PageSize: 1024, Directory: dir, Topology: topo}))
	defer c.Close()
	var elapsed sim.Duration
	c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
		addr := must(h0.DSM.Alloc(p, conv.Int32, per*pages))
		start := p.Now()
		// Phase 1 — migratory ring: every host writes one word to a
		// rotating page (pages 1..7; page 0 stays clean for phase 2),
		// so ownership never sits where the directory last recorded it.
		for i := 1; i < n; i++ {
			base := addr + dsm.Addr(4*per*(1+i%(pages-1)))
			c.Hosts[i].DSM.WriteInt32(p, base, int32(i))
		}
		// Phase 2 — full-copyset read: every host reads page 0, growing
		// its copyset to the whole cluster.
		hot := addr
		for i := 1; i < n; i++ {
			if got := c.Hosts[i].DSM.ReadInt32(p, hot); got != 0 {
				panic(fmt.Sprintf("scaling %s/%s: host %d read %d from hot page, want 0", dir, topoName, i, got))
			}
		}
		// Phase 3 — one write invalidates them all: the multicast tree
		// (or the bus broadcast) carries one invalidation to N-1 copies.
		c.Hosts[1].DSM.WriteInt32(p, hot, 42)
		if got := c.Hosts[n-1].DSM.ReadInt32(p, hot); got != 42 {
			panic(fmt.Sprintf("scaling %s/%s: stale read %d after invalidation, want 42", dir, topoName, got))
		}
		elapsed = p.Now().Sub(start)
	})
	total := c.TotalDSMStats()
	row := ScalingRow{
		Hosts:          n,
		Topo:           topoName,
		Scheme:         dir.String(),
		ElapsedS:       elapsed.Seconds(),
		MaxChain:       total.ChainMax,
		CrossSegFrames: c.Net.Stats().CrossSegmentFrames,
	}
	for _, n := range total.Messages {
		row.Messages += n
	}
	row.MsgsPerHost = float64(row.Messages) / float64(n)
	return row
}

// DirectoryScalingTable renders the scaling ablation for EXPERIMENTS.md
// and mermaid-bench.
func DirectoryScalingTable(rows []ScalingRow) *Table {
	t := &Table{
		Title:  "Directory schemes at scale (§3.1 extended): bus vs switched topology",
		Header: []string{"hosts", "topology", "scheme", "time (s)", "messages", "msgs/host", "max chain", "cross-seg frames"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Hosts),
			r.Topo,
			r.Scheme,
			fmt.Sprintf("%.2f", r.ElapsedS),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%.1f", r.MsgsPerHost),
			fmt.Sprintf("%d", r.MaxChain),
			fmt.Sprintf("%d", r.CrossSegFrames),
		})
	}
	return t
}
