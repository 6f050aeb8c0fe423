package exp

// The §3.1 manager-scheme ablation the paper argues by hand: fixed
// distributed managers (the scheme Mermaid chose), a centralized
// manager, and Li & Hudak's dynamic distributed manager with
// probable-owner forwarding (the scheme §3.1 passed over). One
// migratory-sharing workload runs under all three directories and the
// per-scheme message counts — total, and the subset spent purely on
// locating owners — plus forwarding-chain statistics make the paper's
// qualitative choice quantitative.

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/proto"
	"repro/internal/sim"
)

// DirectorySchemeRow is one manager scheme's cost on the common
// migratory workload.
type DirectorySchemeRow struct {
	// Scheme names the directory ("fixed", "central", "dynamic").
	Scheme string
	// ElapsedS is the workload's simulated wall time.
	ElapsedS float64
	// Messages counts every protocol message sent cluster-wide.
	Messages int
	// DirMsgs counts the messages spent locating and brokering owners:
	// manager requests and serve orders under the fixed schemes,
	// request/forward/recovery traffic under the dynamic scheme.
	DirMsgs int
	// Fetches counts page bodies moved; Invals invalidations sent.
	Fetches int
	Invals  int
	// Forwards counts probable-owner hops (dynamic only); AvgHops is
	// hops per owner-served request and MaxChain the longest chase.
	Forwards int
	AvgHops  float64
	MaxChain int
}

// fixedDirKinds is the owner-locating traffic of the fixed and central
// schemes; dynDirKinds its dynamic-directory counterpart.
var fixedDirKinds = []proto.Kind{
	proto.KindGetPage, proto.KindGetPageWrite, proto.KindServeRequest, proto.KindOwnerUpdate,
}

var dynDirKinds = []proto.Kind{
	proto.KindDynGetPage, proto.KindDynGetPageWrite, proto.KindDynForward,
	proto.KindDynForwardAck, proto.KindDynRecover, proto.KindDynRecoverReply,
	proto.KindDynConfirm, proto.KindDynConfirmAck,
}

// DirectorySchemes runs the migratory workload under each directory
// scheme: 6 hosts, 24 one-KB pages, three rounds of rotating writers
// with trailing third-party readers — ownership keeps moving away from
// whatever the directory recorded, which is exactly what separates the
// schemes.
func DirectorySchemes() []DirectorySchemeRow {
	return sim.Each(len(directorySchemes), func(i int) DirectorySchemeRow {
		return runDirectoryScheme(directorySchemes[i])
	})
}

// directorySchemes lists the manager schemes both directory ablations
// run, in table order; a row is labelled with the scheme's String.
var directorySchemes = []dsm.Directory{dsm.DirFixed, dsm.DirCentral, dsm.DirDynamic}

func runDirectoryScheme(dir dsm.Directory) DirectorySchemeRow {
	const (
		nf     = 5  // Firefly workers; host 0 is the Sun coordinator
		pages  = 24 // 1 KB pages
		per    = 256
		rounds = 3
	)
	c := must(cluster.New(cluster.Config{Hosts: sunAndFireflies(nf, 0), Seed: 1, PageSize: 1024, Directory: dir}))
	defer c.Close()
	var elapsed sim.Duration
	c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
		addr := must(h0.DSM.Alloc(p, conv.Int32, per*pages))
		start := p.Now()
		buf := make([]int32, 8)
		for r := 0; r < rounds; r++ {
			for pg := 0; pg < pages; pg++ {
				base := addr + dsm.Addr(4*per*pg)
				writer := c.Hosts[(pg+r)%nf+1]
				for i := range buf {
					buf[i] = int32(100*r + pg + i)
				}
				writer.DSM.WriteInt32s(p, base, buf)
				reader := c.Hosts[(pg+r+2)%nf+1]
				var got [8]int32
				reader.DSM.ReadInt32s(p, base, got[:])
				for i := range got {
					if got[i] != buf[i] {
						panic(fmt.Sprintf("directory scheme %s: page %d round %d: read %d, want %d",
							dir, pg, r, got[i], buf[i]))
					}
				}
			}
		}
		elapsed = p.Now().Sub(start)
	})
	total := c.TotalDSMStats()
	row := DirectorySchemeRow{
		Scheme:   dir.String(),
		ElapsedS: elapsed.Seconds(),
		Fetches:  total.PagesFetched,
		Invals:   total.InvalidationsSent,
		Forwards: total.Forwards,
		MaxChain: total.ChainMax,
	}
	for _, n := range total.Messages {
		row.Messages += n
	}
	dirKinds := fixedDirKinds
	if dir == dsm.DirDynamic {
		dirKinds = dynDirKinds
	}
	for _, k := range dirKinds {
		row.DirMsgs += total.Messages[k]
	}
	if total.ChainServes > 0 {
		row.AvgHops = float64(total.ChainHops) / float64(total.ChainServes)
	}
	return row
}

// OwnerForwarding runs the migratory workload under the dynamic
// directory alone — the benchmark entry for probable-owner forwarding.
func OwnerForwarding() DirectorySchemeRow {
	return runDirectoryScheme(dsm.DirDynamic)
}

// DirectorySchemesTable renders the comparison for EXPERIMENTS.md and
// mermaid-bench.
func DirectorySchemesTable(rows []DirectorySchemeRow) *Table {
	t := &Table{
		Title:  "Manager schemes (§3.1): fixed vs central vs dynamic (probable-owner) directories",
		Header: []string{"scheme", "time (s)", "messages", "dir msgs", "fetches", "invals", "forwards", "avg hops", "max chain"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Scheme,
			fmt.Sprintf("%.2f", r.ElapsedS),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%d", r.DirMsgs),
			fmt.Sprintf("%d", r.Fetches),
			fmt.Sprintf("%d", r.Invals),
			fmt.Sprintf("%d", r.Forwards),
			fmt.Sprintf("%.2f", r.AvgHops),
			fmt.Sprintf("%d", r.MaxChain),
		})
	}
	return t
}
