package vet

// Forward dataflow over a funcCFG to a fixed point, for buf-own, its
// one client: an abstract state type with clone/join, a transfer
// function applied node by node, and a reporting hook. The engine runs
// twice conceptually: first it iterates transfer over the worklist until
// the per-block in-states stop changing (joins are unions, so states
// grow monotonically and the iteration terminates), then it makes one
// final pass over the stable in-states with reporting enabled, so every
// diagnostic is emitted exactly once from converged facts.

type flowState interface {
	// clone returns an independent copy the transfer function may mutate.
	clone() flowState
	// join merges other into the receiver, reporting whether the
	// receiver changed. other is never mutated.
	join(other flowState) bool
}

// runFlow propagates states through g. transfer applies the effect of
// blk.nodes[idx] to st in place; it is invoked with report=false during
// iteration and report=true on the final pass, so findings are emitted
// exactly once from converged facts.
func runFlow(g *funcCFG, entry flowState, transfer func(st flowState, blk *cfgBlock, idx int, report bool)) {
	in := make([]flowState, len(g.blocks))
	in[g.entry.id] = entry

	work := []*cfgBlock{g.entry}
	queued := make([]bool, len(g.blocks))
	queued[g.entry.id] = true
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk.id] = false
		if in[blk.id] == nil {
			continue
		}
		out := in[blk.id].clone()
		for i := range blk.nodes {
			transfer(out, blk, i, false)
		}
		for _, s := range blk.succs {
			changed := false
			if in[s.id] == nil {
				in[s.id] = out.clone()
				changed = true
			} else if in[s.id].join(out) {
				changed = true
			}
			if changed && !queued[s.id] {
				queued[s.id] = true
				work = append(work, s)
			}
		}
	}

	// Final reporting pass over converged in-states.
	for _, blk := range g.blocks {
		if in[blk.id] == nil {
			continue
		}
		st := in[blk.id].clone()
		for i := range blk.nodes {
			transfer(st, blk, i, true)
		}
	}
}
