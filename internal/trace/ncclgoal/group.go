package ncclgoal

import (
	"fmt"

	"atlahs/internal/goal"
)

// GroupGPUs is stage 4 of the pipeline: it folds a GPU-level schedule
// (one rank per GPU) into a node-level schedule (one rank per node,
// gpusPerNode GPUs each). Every GPU's compute streams move to a private
// stream range of its node; sends and receives between GPUs of the same
// node are replaced by calc vertices costed at the intra-node interconnect
// (paper Fig 5, "replace intra-node sends and receives with calc
// vertices"), with the receive side depending on the send side so
// cross-GPU synchronisation is preserved. Cross-node messages keep their
// semantics, with tags densified per (srcGPU, dstGPU, tag) so distinct GPU
// pairs sharing a node pair can never cross-match.
func GroupGPUs(gpuSched *goal.Schedule, gpusPerNode int, intraNsPerByte float64) (*goal.Schedule, error) {
	if gpusPerNode <= 0 {
		return nil, fmt.Errorf("ncclgoal: non-positive gpusPerNode")
	}
	if intraNsPerByte <= 0 {
		intraNsPerByte = 1.0 / 150.0
	}
	ngpus := gpuSched.NumRanks()
	nnodes := (ngpus + gpusPerNode - 1) / gpusPerNode
	nodeOf := func(g int) int { return g / gpusPerNode }

	// stream range per GPU within its node
	streamsPerGPU := int32(1)
	for g := range gpuSched.Ranks {
		for i := range gpuSched.Ranks[g].Ops {
			if c := gpuSched.Ranks[g].Ops[i].CPU + 1; c > streamsPerGPU {
				streamsPerGPU = c
			}
		}
	}

	// A node's program is its GPUs' programs laid end to end: op i of GPU
	// g becomes op base[g]+i of node nodeOf(g). Dependencies are always
	// GPU-local, hence node-local, and only shift by base[g], so every
	// node table is sized up front from the GPU schedule's counts.
	out := &goal.Schedule{Ranks: make([]goal.RankProgram, nnodes)}
	base := make([]int32, ngpus)
	for g := range gpuSched.Ranks {
		if g%gpusPerNode != 0 {
			base[g] = base[g-1] + int32(len(gpuSched.Ranks[g-1].Ops))
		}
	}
	for n := range out.Ranks {
		last := min((n+1)*gpusPerNode, ngpus) - 1
		out.Ranks[n].Ops = make([]goal.Op, int(base[last])+len(gpuSched.Ranks[last].Ops))
	}

	type pairKey struct {
		src, dst int
		tag      int32
	}
	denseTags := map[pairKey]int32{}
	nextTag := int32(0)
	tagFor := func(k pairKey) int32 {
		if t, ok := denseTags[k]; ok {
			return t
		}
		denseTags[k] = nextTag
		nextTag++
		return denseTags[k]
	}
	intraSends := map[pairKey][]int32{}
	intraRecvs := map[pairKey][]int32{}

	// pass 1: create ops
	for g := 0; g < ngpus; g++ {
		node := nodeOf(g)
		local := int32(g % gpusPerNode)
		ops := out.Ranks[node].Ops[base[g]:]
		for i := range gpuSched.Ranks[g].Ops {
			op := &gpuSched.Ranks[g].Ops[i]
			id := base[g] + int32(i)
			cpu := local*streamsPerGPU + op.CPU
			h := int(op.Peer)
			switch op.Kind {
			case goal.KindCalc:
				ops[i] = goal.Op{Kind: goal.KindCalc, Peer: -1, Size: op.Size, CPU: cpu}
			case goal.KindSend:
				key := pairKey{g, h, op.Tag}
				if nodeOf(h) == node {
					ops[i] = goal.Op{Kind: goal.KindCalc, Peer: -1, Size: int64(float64(op.Size) * intraNsPerByte), CPU: cpu}
					intraSends[key] = append(intraSends[key], id)
				} else {
					ops[i] = goal.Op{Kind: goal.KindSend, Peer: int32(nodeOf(h)), Tag: tagFor(key), Size: op.Size, CPU: cpu}
				}
			case goal.KindRecv:
				key := pairKey{h, g, op.Tag}
				if nodeOf(h) == node {
					ops[i] = goal.Op{Kind: goal.KindCalc, Peer: -1, CPU: cpu}
					intraRecvs[key] = append(intraRecvs[key], id)
				} else {
					tag := op.Tag
					if tag != goal.AnyTag {
						tag = tagFor(key)
					}
					ops[i] = goal.Op{Kind: goal.KindRecv, Peer: int32(nodeOf(h)), Tag: tag, Size: op.Size, CPU: cpu}
				}
			}
		}
	}

	// pass 2: pair intra-node transfers — the k-th receive depends on the
	// k-th send of its (srcGPU, dstGPU, tag) stream. pairDep[node][recv]
	// holds that send, or -1.
	pairDep := make([][]int32, nnodes)
	for key, recvs := range intraRecvs {
		sends := intraSends[key]
		if len(sends) != len(recvs) {
			return nil, fmt.Errorf("ncclgoal: intra-node pair %d->%d tag %d has %d sends but %d recvs",
				key.src, key.dst, key.tag, len(sends), len(recvs))
		}
		node := nodeOf(key.dst)
		if pairDep[node] == nil {
			pairDep[node] = make([]int32, len(out.Ranks[node].Ops))
			for i := range pairDep[node] {
				pairDep[node][i] = -1
			}
		}
		for k, r := range recvs {
			pairDep[node][r] = sends[k]
		}
	}
	for key, sends := range intraSends {
		if len(intraRecvs[key]) != len(sends) {
			return nil, fmt.Errorf("ncclgoal: intra-node pair %d->%d tag %d has %d sends but %d recvs",
				key.src, key.dst, key.tag, len(sends), len(intraRecvs[key]))
		}
	}

	// pass 3: copy dependencies, shifted by base[g]; an intra-node receive
	// additionally requires its paired send, after its GPU-local deps
	for n := range out.Ranks {
		first := n * gpusPerNode
		gpus := gpuSched.Ranks[first:min(first+gpusPerNode, ngpus)]
		var err error
		if out.Ranks[n].Requires, err = remapDeps(gpus, first, base[first:], requiresOf, pairDep[n]); err != nil {
			return nil, err
		}
		if out.Ranks[n].IRequires, err = remapDeps(gpus, first, base[first:], irequiresOf, nil); err != nil {
			return nil, err
		}
	}

	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

func requiresOf(rp *goal.RankProgram) [][]int32  { return rp.Requires }
func irequiresOf(rp *goal.RankProgram) [][]int32 { return rp.IRequires }

// remapDeps builds one node's dependency table from its GPUs' tables
// (picked out of each GPU program by table; the node's first GPU is
// first), shifting GPU g's deps by base[g] and appending pair[i] to node
// op i where pair[i] >= 0. The lists are capped views into a single arena;
// empty lists stay nil.
func remapDeps(gpus []goal.RankProgram, first int, base []int32, table func(*goal.RankProgram) [][]int32, pair []int32) ([][]int32, error) {
	nops, total := 0, 0
	for g := range gpus {
		deps := table(&gpus[g])
		if len(deps) != len(gpus[g].Ops) {
			return nil, fmt.Errorf("ncclgoal: GPU %d has %d ops but %d dependency lists", first+g, len(gpus[g].Ops), len(deps))
		}
		nops += len(deps)
		for _, d := range deps {
			total += len(d)
		}
	}
	for _, p := range pair {
		if p >= 0 {
			total++
		}
	}
	out := make([][]int32, nops)
	arena := make([]int32, 0, total)
	for g := range gpus {
		n := int32(len(gpus[g].Ops))
		for i, deps := range table(&gpus[g]) {
			id := base[g] + int32(i)
			start := len(arena)
			for _, d := range deps {
				if d < 0 || d >= n {
					return nil, fmt.Errorf("ncclgoal: GPU %d op %d depends on op %d out of range [0,%d)", first+g, i, d, n)
				}
				arena = append(arena, base[g]+d)
			}
			if pair != nil && pair[id] >= 0 {
				arena = append(arena, pair[id])
			}
			if end := len(arena); end > start {
				out[id] = arena[start:end:end]
			}
		}
	}
	return out, nil
}
