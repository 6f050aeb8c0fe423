package main

// -compare a.json b.json: one row per (workload, end-to-end metric) of
// two result files, a being the parent. Virtual-time metrics and
// sim_digest repeat exactly for a seed, so they are compared exactly;
// host-time metrics are compared within the bound the benchmark fixed,
// and reported as unresolved rather than unchanged when the run-to-run
// spread is wider than that bound and the two sides' samples interleave.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// spread is the distance between a metric's quartiles as a share of its
// median; 0 for a single reading.
func spread(m metricValue) float64 {
	if len(m.Samples) < 2 || m.Value == 0 {
		return 0
	}
	return (percentile(m.Samples, 75) - percentile(m.Samples, 25)) / m.Value
}

// samplesOf is the metric's samples, or its one reading.
func samplesOf(m metricValue) []float64 {
	if len(m.Samples) > 0 {
		return m.Samples
	}
	return []float64{m.Value}
}

// verdict judges b against the parent a for one declared metric.
func verdict(d metricDecl, a, b metricValue) string {
	// worse is how far b's median moved in the bad direction, as a share
	// of a's.
	worse := (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	if d.Clock == virtual {
		switch {
		case a.Value == b.Value:
			return unchanged
		case worse > 0:
			return regressed
		}
		return improved
	}
	sa, sb := samplesOf(a), samplesOf(b)
	interleave := slices.Min(sa) <= slices.Max(sb) && slices.Min(sb) <= slices.Max(sa)
	switch {
	case max(spread(a), spread(b)) > d.Bound && interleave:
		return unresolved
	case worse > d.Bound:
		return regressed
	case worse < -d.Bound:
		return improved
	}
	return unchanged
}

// compareFiles prints the comparison and returns the exit code: 1 when
// any row is regressed or unresolved or a check failed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	fa, err := readResultFile(pathA)
	if err == nil {
		var fb *resultFile
		if fb, err = readResultFile(pathB); err == nil {
			return compareResults(w, fa, fb)
		}
	}
	logf("%v", err)
	return 2
}

func compareResults(w io.Writer, fa, fb *resultFile) int {
	byName := map[string]*runResult{}
	for _, r := range fb.Runs {
		byName[r.Workload] = r
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-14s %-8s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "clock", "a median", "b median", "a spread", "b spread", "b worse", "verdict")
	for _, a := range fa.Runs {
		b := byName[a.Workload]
		if b == nil || a.Trace || b.Trace {
			continue
		}
		if a.Seed != b.Seed || a.Quick != b.Quick {
			logf("%s: the two runs differ in seed or scale; nothing to compare", a.Workload)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			ma, mb := a.Metrics[d.Name], b.Metrics[d.Name]
			v := verdict(d, ma, mb)
			if v == regressed || v == unresolved {
				code = 1
			}
			worse := 100 * (mb.Value - ma.Value) / ma.Value
			if d.Better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(w, "%-13s %-14s %-8s %14.6g %14.6g %7.2f%% %7.2f%% %+7.2f%%  %s\n",
				a.Workload, d.Name, d.Clock, ma.Value, mb.Value, 100*spread(ma), 100*spread(mb), worse, v)
		}
		// Informational: a change to the simulated behaviour moves the
		// digest; a change meant only to speed the simulator must not.
		v := unchanged
		if a.SimDigest != b.SimDigest {
			v = "differs"
		}
		fmt.Fprintf(w, "%-13s %-14s %-8s %14s %14s %8s %8s %8s  %s\n", a.Workload, "sim_digest", virtual, a.SimDigest[:12], b.SimDigest[:12], "", "", "", v)
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(w, "%-13s failed checks: a %d of %d, b %d of %d\n", a.Workload, a.Failed, a.Attempted, b.Failed, b.Attempted)
			code = 1
		}
	}
	return code
}
