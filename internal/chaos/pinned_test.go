package chaos

import (
	"regexp"
	"testing"

	"repro/internal/cluster"
	"repro/internal/docquote"
	"repro/internal/sim"
)

// TestCampaignsPinned pins seed 1 of every workload × class to the run
// recorded before the workloads were folded onto one cluster builder
// and one stamp body: dispatched events, virtual elapsed time and every
// counter of the fingerprint. The `state=` word is left out — it moves
// whenever the state hash's encoding does, which is not a change in
// simulated behaviour; everything else here moving is. The chaos twin
// of mc.TestDFSReportsPinned. EXPERIMENTS.md quotes the 28 one-run
// summary lines (`mermaid-chaos -seed=1 -runs=1`) under this test's
// name, and a quote that differs fails here.
func TestCampaignsPinned(t *testing.T) {
	stateWord := regexp.MustCompile(`state=[0-9a-f]{16} `)
	cases := []struct {
		token    string
		steps    int
		elapsed  sim.Duration
		counters string
	}{
		{"chaos1:counter:drop:1", 2688, 7005852504, "t=7.005852504s steps=2688 fetched=20 conv=12 recovered=0 lost=0 dropped=3 cut=0 corrupted=3 duplicated=0 toDead=0"},
		{"chaos1:counter:partition:1", 2749, 7076954312, "t=7.076954312s steps=2749 fetched=21 conv=15 recovered=0 lost=0 dropped=0 cut=40 corrupted=0 duplicated=0 toDead=0"},
		{"chaos1:counter:crash:1", 2347, 6981381536, "t=6.981381536s steps=2347 fetched=21 conv=16 recovered=0 lost=0 dropped=0 cut=0 corrupted=0 duplicated=0 toDead=46"},
		{"chaos1:counter:mix:1", 1465, 8202279888, "t=8.202279888s steps=1465 fetched=9 conv=7 recovered=0 lost=0 dropped=3 cut=31 corrupted=0 duplicated=0 toDead=59"},
		{"chaos1:forward:drop:1", 4163, 7094268000, "t=7.094268s steps=4163 fetched=42 conv=29 recovered=0 lost=0 dropped=3 cut=0 corrupted=4 duplicated=0 toDead=0"},
		{"chaos1:forward:partition:1", 4011, 7183571288, "t=7.183571288s steps=4011 fetched=42 conv=28 recovered=0 lost=0 dropped=0 cut=53 corrupted=0 duplicated=0 toDead=0"},
		{"chaos1:forward:crash:1", 2647, 7928485472, "t=7.928485472s steps=2647 fetched=21 conv=15 recovered=0 lost=1 dropped=0 cut=0 corrupted=0 duplicated=0 toDead=106"},
		{"chaos1:forward:mix:1", 2761, 8281751416, "t=8.281751416s steps=2761 fetched=26 conv=23 recovered=0 lost=1 dropped=3 cut=38 corrupted=0 duplicated=0 toDead=87"},
		{"chaos1:handoff:drop:1", 2089, 7023151800, "t=7.0231518s steps=2089 fetched=12 conv=9 recovered=0 lost=0 dropped=3 cut=0 corrupted=0 duplicated=0 toDead=0"},
		{"chaos1:handoff:partition:1", 2048, 6911059088, "t=6.911059088s steps=2048 fetched=12 conv=10 recovered=0 lost=0 dropped=0 cut=39 corrupted=0 duplicated=0 toDead=0"},
		{"chaos1:handoff:crash:1", 1723, 6953223600, "t=6.9532236s steps=1723 fetched=12 conv=9 recovered=1 lost=0 dropped=0 cut=0 corrupted=0 duplicated=0 toDead=46"},
		{"chaos1:handoff:mix:1", 1680, 8713766416, "t=8.713766416s steps=1680 fetched=11 conv=7 recovered=1 lost=0 dropped=2 cut=19 corrupted=0 duplicated=0 toDead=61"},
		{"chaos1:quorum:drop:1", 7331, 6942287874, "t=6.942287874s steps=7331 fetched=1 conv=96 recovered=0 lost=0 dropped=19 cut=0 corrupted=3 duplicated=0 toDead=0"},
		{"chaos1:quorum:partition:1", 7264, 6945300800, "t=6.9453008s steps=7264 fetched=0 conv=83 recovered=0 lost=0 dropped=0 cut=100 corrupted=0 duplicated=0 toDead=0"},
		{"chaos1:quorum:crash:1", 5983, 7009599200, "t=7.0095992s steps=5983 fetched=0 conv=67 recovered=0 lost=0 dropped=0 cut=0 corrupted=0 duplicated=0 toDead=150"},
		{"chaos1:quorum:mix:1", 5668, 6964801000, "t=6.964801s steps=5668 fetched=1 conv=61 recovered=0 lost=0 dropped=13 cut=85 corrupted=0 duplicated=0 toDead=144"},
		{"chaos1:rc:drop:1", 1595, 7046506368, "t=7.046506368s steps=1595 fetched=5 conv=17 recovered=0 lost=0 dropped=3 cut=0 corrupted=0 duplicated=0 toDead=0"},
		{"chaos1:rc:partition:1", 1539, 7046506368, "t=7.046506368s steps=1539 fetched=5 conv=17 recovered=0 lost=0 dropped=0 cut=21 corrupted=0 duplicated=0 toDead=0"},
		{"chaos1:rc:crash:1", 1106, 6949633056, "t=6.949633056s steps=1106 fetched=3 conv=13 recovered=0 lost=0 dropped=0 cut=0 corrupted=0 duplicated=0 toDead=46"},
		{"chaos1:rc:mix:1", 1107, 6949633056, "t=6.949633056s steps=1107 fetched=3 conv=14 recovered=0 lost=0 dropped=3 cut=12 corrupted=0 duplicated=0 toDead=43"},
		{"chaos1:slots:drop:1", 2374, 7358147992, "t=7.358147992s steps=2374 fetched=21 conv=20 recovered=0 lost=0 dropped=3 cut=0 corrupted=0 duplicated=0 toDead=0"},
		{"chaos1:slots:partition:1", 2174, 7334225776, "t=7.334225776s steps=2174 fetched=19 conv=18 recovered=0 lost=0 dropped=0 cut=23 corrupted=0 duplicated=0 toDead=0"},
		{"chaos1:slots:crash:1", 1780, 7132034224, "t=7.132034224s steps=1780 fetched=18 conv=18 recovered=1 lost=0 dropped=0 cut=0 corrupted=0 duplicated=0 toDead=48"},
		{"chaos1:slots:mix:1", 1422, 7241977384, "t=7.241977384s steps=1422 fetched=13 conv=13 recovered=1 lost=0 dropped=3 cut=18 corrupted=0 duplicated=0 toDead=45"},
		{"chaos1:switched:drop:1", 4700, 7458754144, "t=7.458754144s steps=4700 fetched=23 conv=21 recovered=0 lost=0 dropped=3 cut=23 corrupted=0 duplicated=0 toDead=0"},
		{"chaos1:switched:partition:1", 4477, 7354760128, "t=7.354760128s steps=4477 fetched=21 conv=19 recovered=0 lost=0 dropped=0 cut=63 corrupted=0 duplicated=0 toDead=0"},
		{"chaos1:switched:crash:1", 4062, 7458754144, "t=7.458754144s steps=4062 fetched=23 conv=21 recovered=0 lost=0 dropped=0 cut=25 corrupted=0 duplicated=0 toDead=123"},
		{"chaos1:switched:mix:1", 4274, 7233736360, "t=7.23373636s steps=4274 fetched=25 conv=23 recovered=0 lost=0 dropped=7 cut=32 corrupted=2 duplicated=0 toDead=114"},
	}
	if want := len(All()) * len(Classes()); len(cases) != want {
		t.Errorf("%d campaigns pinned, the grid has %d: pin the new workload or class", len(cases), want)
	}
	var summaries []string
	for _, c := range cases {
		name, class, seed, err := DecodeToken(c.token)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		series, err := RunSeries(w, class, seed, 1, Opts{})
		if err != nil {
			t.Fatalf("%s: %v", c.token, err)
		}
		summaries = append(summaries, series.String())
		res := series.Results[0]
		if res.Outcome != cluster.OK {
			t.Errorf("%s: %s: %s", c.token, res.Outcome, res.Detail)
		}
		got := stateWord.ReplaceAllString(res.Fingerprint, "")
		if res.Steps != c.steps || res.Elapsed != c.elapsed || got != c.counters {
			t.Errorf("%s: a different run:\n  got  steps=%d elapsed=%d %s\n  want steps=%d elapsed=%d %s",
				c.token, res.Steps, res.Elapsed, got, c.steps, c.elapsed, c.counters)
		}
	}
	if err := docquote.Check("../../EXPERIMENTS.md", "chaos.TestCampaignsPinned", summaries); err != nil {
		t.Error(err)
	}
}
