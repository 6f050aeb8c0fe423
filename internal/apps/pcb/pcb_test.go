package pcb

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/model"
)

func TestGenerateBoardDeterministic(t *testing.T) {
	a := GenerateBoard(512, 128, 7)
	b := GenerateBoard(512, 128, 7)
	if !bytes.Equal(a.Front, b.Front) || !bytes.Equal(a.Back, b.Back) {
		t.Fatal("same seed produced different boards")
	}
	c := GenerateBoard(512, 128, 8)
	if bytes.Equal(a.Front, c.Front) {
		t.Fatal("different seeds produced identical boards")
	}
}

func TestSequentialCheckFindsInjectedFlaws(t *testing.T) {
	b := GenerateBoard(2048, 256, 3)
	_, flawCount, copperCount := CheckSequential(b)
	if flawCount == 0 {
		t.Fatal("no flaws found on a board with injected violations")
	}
	if copperCount == 0 {
		t.Fatal("no copper on the generated board")
	}
	if flawCount > copperCount {
		t.Fatalf("%d flaw pixels exceed %d copper pixels; checker broken", flawCount, copperCount)
	}
}

func TestCleanFeaturePassesRules(t *testing.T) {
	// A lone wide trace with no neighbours must produce no flaws.
	b := &Board{W: 128, H: 64, Front: make([]byte, 128*64), Back: make([]byte, 128*64)}
	b.fillRect(10, 20, 100, 20+MinWidth, Copper) // thickness MinWidth+1
	_, flawCount, _ := CheckSequential(b)
	if flawCount != 0 {
		t.Fatalf("clean board reported %d flaw pixels", flawCount)
	}
}

func TestThinTraceFlagged(t *testing.T) {
	b := &Board{W: 128, H: 64, Front: make([]byte, 128*64), Back: make([]byte, 128*64)}
	b.fillRect(10, 20, 100, 21, Copper) // thickness 2 < MinWidth... but long horizontally
	// Horizontally long: rule 1 requires thin in *both* axes, so a long
	// thin trace is legal by rule 1 — it's a trace, not a defect blob.
	// A short thin blob must be flagged.
	b.fillRect(50, 40, 51, 41, Copper) // 2×2 blob
	flaws, flawCount, _ := CheckSequential(b)
	if flawCount == 0 {
		t.Fatal("2×2 copper blob not flagged as too thin")
	}
	if flaws[40*128+50] == 0 {
		t.Fatal("blob pixels not marked")
	}
}

func TestSpacingViolationFlagged(t *testing.T) {
	b := &Board{W: 128, H: 64, Front: make([]byte, 128*64), Back: make([]byte, 128*64)}
	b.fillRect(10, 20, 100, 24, Copper)
	b.fillRect(10, 27, 100, 31, Copper) // gap of 2 rows < MinSpace
	_, flawCount, _ := CheckSequential(b)
	if flawCount == 0 {
		t.Fatal("2-row spacing between traces not flagged")
	}
}

func TestMisdrilledHoleFlagged(t *testing.T) {
	b := &Board{W: 128, H: 64, Front: make([]byte, 128*64), Back: make([]byte, 128*64)}
	b.fillRectInto(b.Back, 60, 30, 63, 33, Hole) // hole with no pad
	_, flawCount, _ := CheckSequential(b)
	if flawCount == 0 {
		t.Fatal("hole outside a pad not flagged")
	}
}

func TestStripedCheckMatchesSequential(t *testing.T) {
	b := GenerateBoard(1024, 256, 11)
	want, wantCount, _ := CheckSequential(b)
	for _, stripes := range []int{2, 3, 5, 8} {
		flaws := make([]byte, b.W*b.H)
		total := 0
		per := (b.H + stripes - 1) / stripes
		for s := 0; s < stripes; s++ {
			lo := s * per
			hi := min(lo+per, b.H)
			count, _ := CheckStripe(b.Front, b.Back, flaws, b.W, b.H, lo, hi, RequiredOverlap)
			total += count
		}
		if total != wantCount {
			t.Fatalf("%d stripes found %d flaw pixels, sequential %d", stripes, total, wantCount)
		}
		if !bytes.Equal(flaws, want) {
			t.Fatalf("%d-stripe flaw image differs from sequential", stripes)
		}
	}
}

func newCluster(t *testing.T, fireflies, cpus int) *cluster.Cluster {
	t.Helper()
	hosts := []cluster.HostSpec{{Kind: arch.Sun}}
	for i := 0; i < fireflies; i++ {
		hosts = append(hosts, cluster.HostSpec{Kind: arch.Firefly, CPUs: cpus})
	}
	c, err := cluster.New(cluster.Config{Hosts: hosts, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDistributedInspectionCorrect(t *testing.T) {
	c := newCluster(t, 2, 4)
	r := Register(c)
	res, err := r.Run(Config{
		W: 512, H: 128,
		Master: 0,
		Slaves: []cluster.HostID{1, 1, 2, 2},
		Seed:   5,
		Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("distributed inspection differs from sequential check")
	}
	if res.FlawPixels == 0 {
		t.Fatal("no flaws found")
	}
}

func TestMoreFirefliesSpeedUpInspection(t *testing.T) {
	run := func(slaves []cluster.HostID) float64 {
		c := newCluster(t, 3, 4)
		r := Register(c)
		res, err := r.Run(Config{W: 1024, H: 256, Master: 0, Slaves: slaves, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed.Seconds()
	}
	one := run([]cluster.HostID{1})
	six := run([]cluster.HostID{1, 1, 2, 2, 3, 3})
	// Stripe overlap is recomputed by every thread, so speedup is well
	// below linear — the very limitation §3.2 reports for PCB.
	if speedup := one / six; speedup < 2.5 {
		t.Fatalf("speedup %.2f with 6 threads on 3 fireflies, want ≥2.5", speedup)
	}
}

func TestSequentialCalibration(t *testing.T) {
	// The paper: "on a Sun3/60, it takes about five minutes to process a
	// 2 cm × 16 cm area" (and elsewhere "six minutes"). At 128 px/cm the
	// area is 256×2048; the modelled time must land in 280–400 s.
	params := model.Default()
	seq := Sequential(&params, arch.Sun, 2048, 256, 5)
	if s := seq.Seconds(); s < 280 || s > 400 {
		t.Fatalf("sequential Sun inspection %.0fs, want ≈300–360s", s)
	}
}
