package goal

import "fmt"

// OpID identifies an op within one rank's program during construction.
type OpID int32

// Builder incrementally constructs a Schedule. It is the API used by every
// trace converter (Schedgen, the NCCL 4-stage pipeline, Direct Drive) and
// workload generator. Builders are not safe for concurrent use.
type Builder struct {
	ranks   []RankBuilder
	comment string
}

// NewBuilder creates a builder for a schedule with nranks ranks.
func NewBuilder(nranks int) *Builder {
	if nranks <= 0 {
		panic("goal: NewBuilder with non-positive rank count")
	}
	b := &Builder{ranks: make([]RankBuilder, nranks)}
	for r := range b.ranks {
		b.ranks[r].r = r
	}
	return b
}

// SetComment attaches a free-form comment stored with the schedule.
func (b *Builder) SetComment(c string) { b.comment = c }

// NumRanks returns the schedule's rank count.
func (b *Builder) NumRanks() int { return len(b.ranks) }

// Rank returns the per-rank builder handle for rank r. Handles are owned
// by the builder, so repeated calls return the same handle and allocate
// nothing.
func (b *Builder) Rank(r int) *RankBuilder {
	if r < 0 || r >= len(b.ranks) {
		panic(fmt.Sprintf("goal: rank %d out of range [0,%d)", r, len(b.ranks)))
	}
	return &b.ranks[r]
}

// RankBuilder adds ops and dependencies to one rank. Dependencies are kept
// as flat edge lists in insertion order, so adding an op or an edge costs
// an amortised append instead of a small per-op slice; Build packs them
// into the schedule's per-op arena layout.
type RankBuilder struct {
	r         int
	ops       []Op
	requires  []depEdge
	irequires []depEdge
}

// depEdge records that op depends on dep.
type depEdge struct{ op, dep int32 }

// Rank returns the rank index this builder appends to.
func (rb *RankBuilder) Rank() int { return rb.r }

// NumOps returns the number of ops added to this rank so far.
func (rb *RankBuilder) NumOps() int { return len(rb.ops) }

func (rb *RankBuilder) add(op Op) OpID {
	rb.ops = append(rb.ops, op)
	return OpID(len(rb.ops) - 1)
}

// Calc appends a computation of the given nanoseconds on stream 0.
func (rb *RankBuilder) Calc(nanos int64) OpID {
	return rb.add(Op{Kind: KindCalc, Peer: -1, Size: nanos})
}

// CalcOn appends a computation on the given compute stream.
func (rb *RankBuilder) CalcOn(nanos int64, cpu int32) OpID {
	return rb.add(Op{Kind: KindCalc, Peer: -1, Size: nanos, CPU: cpu})
}

// Send appends a send of size bytes to rank dst with the given tag.
func (rb *RankBuilder) Send(size int64, dst int, tag int32) OpID {
	return rb.add(Op{Kind: KindSend, Peer: int32(dst), Tag: tag, Size: size})
}

// SendOn appends a send issued from the given compute stream.
func (rb *RankBuilder) SendOn(size int64, dst int, tag int32, cpu int32) OpID {
	return rb.add(Op{Kind: KindSend, Peer: int32(dst), Tag: tag, Size: size, CPU: cpu})
}

// Recv appends a receive of size bytes from rank src with the given tag.
func (rb *RankBuilder) Recv(size int64, src int, tag int32) OpID {
	return rb.add(Op{Kind: KindRecv, Peer: int32(src), Tag: tag, Size: size})
}

// RecvOn appends a receive posted on the given compute stream.
func (rb *RankBuilder) RecvOn(size int64, src int, tag int32, cpu int32) OpID {
	return rb.add(Op{Kind: KindRecv, Peer: int32(src), Tag: tag, Size: size, CPU: cpu})
}

// Requires adds completion dependencies: op starts only after each dep has
// completed.
func (rb *RankBuilder) Requires(op OpID, deps ...OpID) {
	rb.requires = rb.appendEdges(rb.requires, op, deps)
}

// IRequires adds start dependencies: op starts only after each dep has
// started.
func (rb *RankBuilder) IRequires(op OpID, deps ...OpID) {
	rb.irequires = rb.appendEdges(rb.irequires, op, deps)
}

func (rb *RankBuilder) appendEdges(edges []depEdge, op OpID, deps []OpID) []depEdge {
	if op < 0 || int(op) >= len(rb.ops) {
		panic(fmt.Sprintf("goal: rank %d: dependency on op %d out of range [0,%d)", rb.r, op, len(rb.ops)))
	}
	for _, d := range deps {
		edges = append(edges, depEdge{int32(op), int32(d)})
	}
	return edges
}

// Chain links ops into a sequential requires chain (each op requires its
// predecessor) and returns the last op, or -1 for an empty argument list.
func (rb *RankBuilder) Chain(ops ...OpID) OpID {
	if len(ops) == 0 {
		return -1
	}
	for i := 1; i < len(ops); i++ {
		rb.Requires(ops[i], ops[i-1])
	}
	return ops[len(ops)-1]
}

// Build assembles the final Schedule. The builder remains usable (the
// schedule shares no mutable state with it after Build copies slices).
// Dependency tables are packed into per-rank arenas (see arena.go) so the
// built schedule costs a constant number of allocations per rank, not per
// op.
func (b *Builder) Build() *Schedule {
	s := &Schedule{Comment: b.comment, Ranks: make([]RankProgram, len(b.ranks))}
	for r := range b.ranks {
		rk := &b.ranks[r]
		rp := &s.Ranks[r]
		rp.Ops = append([]Op(nil), rk.ops...)
		rp.Requires = packEdges(rk.requires, len(rk.ops))
		rp.IRequires = packEdges(rk.irequires, len(rk.ops))
	}
	return s
}

// MustBuild assembles the Schedule and panics if validation fails. Intended
// for generators whose output is by construction valid.
func (b *Builder) MustBuild() *Schedule {
	s := b.Build()
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}
