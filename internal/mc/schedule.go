package mc

// Replayable schedule tokens. A violation found anywhere in the
// schedule space is reported as a compact string
//
//	mc1:<workload>:<mutation>:<c0.c1.c2…>
//
// that fully determines the run: the workload and mutation select the
// program, the dot-separated integers force the index taken at each
// scheduling choice point (an empty list, spelled "-", is the default
// schedule). Feed the token to `mermaid-mc -replay=…` or the
// MERMAID_MC_SEED environment variable to reproduce the violation
// bit-identically, with a transcript of every choice point.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dsm"
)

// tokenVersion guards against replaying tokens from an incompatible
// choice-point numbering.
const tokenVersion = "mc1"

// EncodeToken renders a replayable schedule string. Trailing zero
// choices are dropped: beyond the forced prefix a replay takes the
// default (index 0) at every choice point anyway, so the trimmed token
// reproduces the identical run — and the all-defaults schedule encodes
// as just "-".
func EncodeToken(workload string, mut dsm.Mutation, choices []int) string {
	for len(choices) > 0 && choices[len(choices)-1] == 0 {
		choices = choices[:len(choices)-1]
	}
	body := "-"
	if len(choices) > 0 {
		parts := make([]string, len(choices))
		for i, c := range choices {
			parts[i] = strconv.Itoa(c)
		}
		body = strings.Join(parts, ".")
	}
	return fmt.Sprintf("%s:%s:%s:%s", tokenVersion, workload, mut, body)
}

// DecodeToken parses a replayable schedule string.
func DecodeToken(token string) (workload string, mut dsm.Mutation, choices []int, err error) {
	parts := strings.Split(strings.TrimSpace(token), ":")
	if len(parts) != 4 {
		return "", 0, nil, fmt.Errorf("mc: malformed schedule token %q (want %s:workload:mutation:choices)", token, tokenVersion)
	}
	if parts[0] != tokenVersion {
		return "", 0, nil, fmt.Errorf("mc: schedule token version %q, this build speaks %s", parts[0], tokenVersion)
	}
	workload = parts[1]
	mut, err = dsm.ParseMutation(parts[2])
	if err != nil {
		return "", 0, nil, err
	}
	if parts[3] != "-" && parts[3] != "" {
		for _, f := range strings.Split(parts[3], ".") {
			v, convErr := strconv.Atoi(f)
			if convErr != nil || v < 0 {
				return "", 0, nil, fmt.Errorf("mc: bad choice %q in schedule token", f)
			}
			choices = append(choices, v)
		}
	}
	return workload, mut, choices, nil
}

// Replay re-executes the run a schedule token describes, collecting a
// per-choice-point transcript. The token's outcome is whatever the run
// produces — a violation token reproduces its violation. A token that
// forces an index at or beyond a choice point's width, or more choices
// than the run reaches, names no run of this workload (it was minted
// against another build, or mistyped) and is an error.
func Replay(token string, maxSteps int) (*Result, error) {
	name, mut, choices, err := DecodeToken(token)
	if err != nil {
		return nil, err
	}
	w, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	res, err := execute(w, mut, execOpts{forced: choices, maxSteps: maxSteps, transcript: true})
	if err != nil {
		return nil, err
	}
	for i, c := range choices {
		if i == len(res.Widths) {
			return nil, fmt.Errorf("mc: token %q forces %d choices, the run reaches only %d", token, len(choices), i)
		}
		if c >= res.Widths[i] {
			return nil, fmt.Errorf("mc: token %q forces index %d at choice point #%d, which has %d alternatives", token, c, i, res.Widths[i])
		}
	}
	return res, nil
}
