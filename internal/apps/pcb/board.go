// Package pcb implements the paper's printed-circuit-board inspection
// application (§3.2) on the Mermaid DSM.
//
// Two digital images of a board — front-lit (copper layout) and back-lit
// (drilled holes) — are stored as large matrices in shared memory. The
// checking software verifies geometric design rules (conductor width,
// spacing, hole placement) and marks violations in a third image. The
// master thread runs on a Sun workstation and divides the board into
// stripes, one per checking thread on the Fireflies (package apps runs
// the master/slave handshake); stripes overlap slightly so features on
// the borders are checked properly, as footnote 4 of the paper
// describes.
//
// The paper's camera images are proprietary; this package generates
// synthetic boards (traces, pads, holes) with seeded rule violations,
// which preserves the relevant behaviour: large read-shared input
// matrices, a write-shared output matrix, and per-stripe computational
// imbalance from uneven feature density.
package pcb

import "math/rand"

// Pixel values in the front-lit image.
const (
	// Substrate is bare board.
	Substrate byte = 0
	// Copper is conductor material.
	Copper byte = 1
)

// Pixel values in the back-lit image.
const (
	// Opaque is anything that blocks back-light.
	Opaque byte = 0
	// Hole is a drilled hole (bright when back-lit).
	Hole byte = 1
)

// Design rules (pixels). MaxFeature bounds every copper feature's
// thickness; stripe overlap must be at least MaxFeature so border
// features are fully visible to some stripe, and at least MinSpace so
// clamped substrate runs classify identically in striped and sequential
// checks.
const (
	// MinWidth is the minimum legal conductor thickness.
	MinWidth = 4
	// MinSpace is the minimum legal gap between conductors.
	MinSpace = 6
	// MaxFeature is the largest feature thickness the generator emits.
	MaxFeature = 12
	// RequiredOverlap is the stripe overlap needed for exact striping.
	RequiredOverlap = MaxFeature + MinSpace
)

// Board holds one synthetic PCB: the two camera images and ground truth.
type Board struct {
	// W and H are the image dimensions in pixels.
	W, H int
	// Front is the front-lit image (copper layout), row-major.
	Front []byte
	// Back is the back-lit image (holes), row-major.
	Back []byte
}

// GenerateBoard builds a deterministic synthetic board with traces,
// pads, holes, and seeded rule violations.
func GenerateBoard(w, h int, seed int64) *Board {
	rng := rand.New(rand.NewSource(seed))
	b := &Board{W: w, H: h, Front: make([]byte, w*h), Back: make([]byte, w*h)}

	// Horizontal traces of varying thickness; a few deliberately thin.
	y := 8
	for y < h-16 {
		thickness := MinWidth + rng.Intn(3) // 4..6: legal
		if rng.Intn(6) == 0 {
			thickness = 2 + rng.Intn(2) // 2..3: too thin
		}
		x0 := rng.Intn(w / 4)
		x1 := w - 1 - rng.Intn(w/4)
		b.fillRect(x0, y, x1, y+thickness-1, Copper)
		gap := MinSpace + 2 + rng.Intn(12)
		if rng.Intn(8) == 0 {
			gap = 2 + rng.Intn(MinSpace-3) // spacing violation
		}
		y += thickness + gap
	}

	// Pads with drilled holes; a few holes misdrilled off their pad.
	for i := 0; i < w*h/16384; i++ {
		px := 8 + rng.Intn(w-24)
		py := 8 + rng.Intn(h-24)
		b.fillRect(px, py, px+MaxFeature-1, py+MaxFeature-1, Copper)
		hx, hy := px+4, py+4
		if rng.Intn(5) == 0 {
			hx = px + MaxFeature + 2 // off the pad: violation
		}
		b.fillRectInto(b.Back, hx, hy, hx+3, hy+3, Hole)
	}
	return b
}

func (b *Board) fillRect(x0, y0, x1, y1 int, v byte) {
	b.fillRectInto(b.Front, x0, y0, x1, y1, v)
}

func (b *Board) fillRectInto(img []byte, x0, y0, x1, y1 int, v byte) {
	for y := y0; y <= y1 && y < b.H; y++ {
		for x := x0; x <= x1 && x < b.W; x++ {
			if x >= 0 && y >= 0 {
				img[y*b.W+x] = v
			}
		}
	}
}

// CheckStripe runs the design-rule check over rows [lo, hi) of the
// board, examining context rows [lo-overlap, hi+overlap) as needed, and
// marks violations of rows [lo, hi) in flaws (a full-board row-major
// image; only the stripe's rows are written). It returns the number of
// flaw pixels marked and the number of copper pixels examined (the
// computational weight of the stripe).
//
// Rules:
//  1. minimum conductor width: a copper pixel whose vertical *and*
//     horizontal copper extents are both below MinWidth is part of a
//     too-thin feature;
//  2. minimum spacing: a substrate gap shorter than MinSpace between
//     copper pixels along a row or column is a spacing violation;
//  3. hole placement: a hole pixel must be drilled through copper.
func CheckStripe(front, back, flaws []byte, w, h, lo, hi, overlap int) (flawCount, copperCount int) {
	clo := max(0, lo-overlap)
	chi := min(h, hi+overlap)

	vert := make([]int32, w*(chi-clo)) // vertical copper run length per pixel
	// Column pass: compute vertical copper extents and spacing gaps.
	for x := 0; x < w; x++ {
		runStart := clo
		prev := byte(0xff)
		flush := func(end int) {
			runLen := end - runStart
			if prev == Copper {
				for y := runStart; y < end; y++ {
					vert[(y-clo)*w+x] = int32(runLen)
				}
			} else if prev == Substrate && runLen < MinSpace && runStart > clo && end < chi {
				// Gap between copper above and below.
				for y := max(runStart, lo); y < min(end, hi); y++ {
					flaws[y*w+x] = 1
				}
			}
		}
		for y := clo; y < chi; y++ {
			v := front[y*w+x]
			if v != prev {
				if prev != 0xff {
					flush(y)
				}
				prev = v
				runStart = y
			}
		}
		flush(chi)
	}

	// Row pass: horizontal extents, spacing, width rule, hole rule.
	for y := lo; y < hi; y++ {
		runStart := 0
		prev := byte(0xff)
		flushRow := func(end int) {
			runLen := end - runStart
			if prev == Copper {
				if runLen < MinWidth {
					// Thin horizontally; violation only if also thin
					// vertically (rule 1).
					for x := runStart; x < end; x++ {
						if vert[(y-clo)*w+x] < MinWidth {
							flaws[y*w+x] = 1
						}
					}
				}
			} else if prev == Substrate && runLen < MinSpace && runStart > 0 && end < w {
				for x := runStart; x < end; x++ {
					flaws[y*w+x] = 1
				}
			}
		}
		for x := 0; x < w; x++ {
			v := front[y*w+x]
			if v == Copper {
				copperCount++
			}
			if v != prev {
				if prev != 0xff {
					flushRow(x)
				}
				prev = v
				runStart = x
			}
			if back[y*w+x] == Hole && v != Copper {
				flaws[y*w+x] = 1 // hole outside its pad (rule 3)
			}
		}
		flushRow(w)
	}

	for y := lo; y < hi; y++ {
		for x := 0; x < w; x++ {
			if flaws[y*w+x] != 0 {
				flawCount++
			}
		}
	}
	return flawCount, copperCount
}

// CheckSequential runs the whole-board check in one pass (the reference
// the paper's speedups are measured against).
func CheckSequential(b *Board) (flaws []byte, flawCount, copperCount int) {
	flaws = make([]byte, b.W*b.H)
	flawCount, copperCount = CheckStripe(b.Front, b.Back, flaws, b.W, b.H, 0, b.H, 0)
	return flaws, flawCount, copperCount
}
