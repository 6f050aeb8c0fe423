package mermaid

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/netsim"
)

// TestScenarioAllocCeilings pins what one run of each whole-simulation
// benchmark scenario allocates. The bodies are the Benchmark* functions'
// own, so `go test -bench <name> -benchmem` shows the number a row
// bounds, and -v on this test logs all thirteen. A ceiling is the value measured when the row was last touched
// plus at most 10 %; a run over it is a regression to explain, not a
// ceiling to raise.
func TestScenarioAllocCeilings(t *testing.T) {
	merge := rcMerge(t)
	for _, row := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"SimKernel1024Hosts", 17200, simKernel1024Hosts},
		{"MCDFSBasic", 151000, mcDFSBasic(t)},
		{"ClusterStateHash", 28, clusterStateHash(t)},
		{"BusInvalidation", 22600, broadcastStorm(t, nil)},
		{"SwitchedInvalidation", 25600, broadcastStorm(t, netsim.SwitchedStar(32, 32))},
		{"RealQuickstartScenario", 460, func() { quickstartScenario(t) }},
		{"RealOwnerForwarding", 7350, func() { exp.OwnerForwarding() }}, // 8 030 when every reply-only handler ran on a process of its own
		// The quorum rows measured 3 625, 6 406 and 3 697 while phase-1
		// queries ran on processes and every reply carried the image.
		{"QuorumFanout3Hosts", 3417, func() { quorumFanout(t, 3) }},
		{"QuorumFanout5Hosts", 5775, func() { quorumFanout(t, 5) }},
		{"QuorumReadShare", 3481, func() { quorumReadShare(t, 3) }}, // 4 143 when every phase-1 reply copied the replica
		// One fold of new versions of 16 pages into a full accumulation:
		// the buffer its kept diffs are copied into. A merge of two whole
		// payloads took 10 when it decoded both into a map.
		{"RCMerge", 1, merge},
		// Measured 1 253 and 1 116. A staging copy storeRun never puts
		// back costs one allocation per write (1 353 and 1 217), so these
		// two ceilings sit under 1.05 × the measured value: they are the
		// guard against leaking it.
		{"UpdateWrites", 1300, func() { policyWrites(t, Update) }},
		{"CentralWrites", 1170, func() { policyWrites(t, Central) }},
	} {
		// One measured run after AllocsPerRun's warm-up: the simulations
		// are deterministic, and the whole table stays near 0.3 s.
		got := testing.AllocsPerRun(1, row.op)
		t.Logf("%s: %.0f allocs per run, ceiling %.0f", row.name, got, row.ceiling)
		if got > row.ceiling {
			t.Errorf("%s: over its ceiling", row.name)
		}
	}
}
