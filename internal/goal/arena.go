package goal

// Dependency arenas. A schedule's dependency tables keep their public
// [][]int32 shape (one list per op), but the inner lists are views into a
// single shared []int32 backing array per table — one allocation instead
// of one per op. On multi-million-op schedules this collapses millions of
// tiny GC-tracked objects into a handful, which is the difference between
// the collector dominating a run and not showing up in the profile at
// all. Empty lists stay nil so arena-backed tables are
// reflect.DeepEqual-compatible with tables built list-by-list.

// packDeps copies a per-op dependency table into views over one shared
// arena. The result aliases none of the input.
func packDeps(deps [][]int32) [][]int32 {
	if len(deps) == 0 {
		return make([][]int32, 0)
	}
	total := 0
	for _, d := range deps {
		total += len(d)
	}
	out := make([][]int32, len(deps))
	if total == 0 {
		return out
	}
	arena := make([]int32, 0, total)
	for i, d := range deps {
		if len(d) == 0 {
			continue
		}
		start := len(arena)
		arena = append(arena, d...)
		// Full slice expressions cap each view at its own length so a
		// caller's append cannot bleed into the next op's list.
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}

// packEdges lays a rank's flat (op, dep) edge list out as the per-op
// dependency table over one shared arena. It is a stable counting sort by
// op: each op's deps keep their insertion order, so the result equals
// packDeps of the same table built list by list.
func packEdges(edges []depEdge, nops int) [][]int32 {
	out := make([][]int32, nops)
	if len(edges) == 0 {
		return out
	}
	// offs[i+1] counts op i's edges; the prefix sum turns offs[i] into
	// op i's first arena slot, and the fill advances it to op i's end.
	offs := make([]int32, nops+1)
	for _, e := range edges {
		offs[e.op+1]++
	}
	for i := 1; i < len(offs); i++ {
		offs[i] += offs[i-1]
	}
	arena := make([]int32, len(edges))
	for _, e := range edges {
		arena[offs[e.op]] = e.dep
		offs[e.op]++
	}
	start := int32(0)
	for i := range out {
		if end := offs[i]; end > start {
			out[i] = arena[start:end:end]
			start = end
		}
	}
	return out
}

// depArena accumulates dependency lists in decode order when per-op
// counts are not known up front (the streaming decoders). Values append
// to one growing buffer; endList marks list boundaries; views slices the
// final buffer into the public [][]int32 shape.
type depArena struct {
	buf  []int32
	ends []int
}

// reserve pre-sizes the arena for nops lists of about total values. Both
// are hints; the arena grows past them transparently.
func (a *depArena) reserve(nops, total int) {
	if cap(a.ends) < nops {
		a.ends = make([]int, 0, nops)
	}
	if cap(a.buf) < total {
		a.buf = make([]int32, 0, total)
	}
}

// push appends one value to the list currently being built.
func (a *depArena) push(v int32) { a.buf = append(a.buf, v) }

// endList closes the current list (possibly empty) and starts the next.
func (a *depArena) endList() { a.ends = append(a.ends, len(a.buf)) }

// views returns the per-op lists as capped views into the shared buffer,
// nil for empty lists. The arena must not be reused afterwards.
func (a *depArena) views() [][]int32 {
	out := make([][]int32, len(a.ends))
	start := 0
	for i, end := range a.ends {
		if end > start {
			out[i] = a.buf[start:end:end]
		}
		start = end
	}
	return out
}
