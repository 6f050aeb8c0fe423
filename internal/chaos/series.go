package chaos

// Seed series: the aggregation behind `mermaid-chaos -runs=N` and the
// EXPERIMENTS.md survival table.

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Series aggregates one workload × class swept across consecutive
// seeds.
type Series struct {
	Workload string
	Class    Class
	// Results holds every run, in seed order.
	Results []*Result
	// Survived counts runs with outcome OK; Violations lists the
	// tokens of the rest.
	Survived   int
	Violations []string
	// Recovered/Lost total pages across the series.
	Recovered int
	Lost      int
	// MeanRecoveryLatency averages over runs that recovered at least
	// one page (0 when none did).
	MeanRecoveryLatency sim.Duration
}

// RunSeries executes runs consecutive seeds starting at baseSeed.
func RunSeries(w *cluster.Workload, class Class, baseSeed int64, runs int, o Opts) (*Series, error) {
	s := &Series{Workload: w.Name, Class: class}
	var latSum sim.Duration
	latRuns := 0
	for i := 0; i < runs; i++ {
		res, err := Run(w, class, baseSeed+int64(i), o)
		if err != nil {
			return nil, err
		}
		s.Results = append(s.Results, res)
		if res.Outcome == cluster.OK {
			s.Survived++
		} else {
			s.Violations = append(s.Violations, res.Token)
		}
		s.Recovered += res.PagesRecovered
		s.Lost += res.PagesLost
		if res.RecoveryLatency > 0 {
			latSum += res.RecoveryLatency
			latRuns++
		}
	}
	if latRuns > 0 {
		s.MeanRecoveryLatency = latSum / sim.Duration(latRuns)
	}
	return s, nil
}

// String renders the series as one summary line.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%-8s class=%-9s survived=%d/%d recovered=%d lost=%d",
		s.Workload, s.Class, s.Survived, len(s.Results), s.Recovered, s.Lost)
	if s.MeanRecoveryLatency > 0 {
		fmt.Fprintf(&b, " mean-recovery=%v", s.MeanRecoveryLatency)
	}
	if len(s.Violations) > 0 {
		fmt.Fprintf(&b, " VIOLATIONS: %s", strings.Join(s.Violations, " "))
	}
	return b.String()
}
