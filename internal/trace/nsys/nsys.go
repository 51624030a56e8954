// Package nsys defines the Nsight-Systems-like GPU trace format consumed
// by the AI arm of the toolchain (paper §3.1.2). A report captures, per
// GPU and per CUDA stream, the kernels and NCCL operations executed with
// their timestamps; NCCL records carry the communicator annotations the
// paper adds to NCCL via NVTX (communicator id, payload, root/peer).
//
// The on-disk form is JSON lines: a header object followed by one record
// per line. Real nsys reports are SQLite databases; the JSON-lines
// rendering keeps the same information content while staying dependency-
// free, and — like the real reports in paper Table 1 — is much larger
// than the GOAL files generated from it.
package nsys

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Record kinds.
const (
	KindKernel = "kernel"
	KindNCCL   = "nccl"
)

// NCCL collective names used in Coll.
const (
	CollAllReduce     = "allreduce"
	CollBroadcast     = "broadcast"
	CollAllGather     = "allgather"
	CollReduceScatter = "reducescatter"
	CollAllToAll      = "alltoall"
	CollSend          = "send"
	CollRecv          = "recv"
)

// Record is one traced GPU activity.
type Record struct {
	GPU     int    `json:"gpu"`
	Stream  int    `json:"stream"`
	Kind    string `json:"kind"`
	Name    string `json:"name,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`

	// NCCL fields (present when Kind == KindNCCL), captured through the
	// NVTX annotations described in the paper.
	Coll  string `json:"coll,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	Comm  string `json:"comm,omitempty"`
	Root  int    `json:"root,omitempty"` // communicator-relative root
	Peer  int    `json:"peer,omitempty"` // communicator-relative peer (send/recv)
}

// Report is a full multi-GPU trace plus communicator membership.
type Report struct {
	NGPUs int              `json:"ngpus"`
	Comms map[string][]int `json:"comms"` // communicator -> GPU ids in rank order
	// Records from all GPUs; order within a (gpu, stream) follows launch
	// order but the file may interleave GPUs arbitrarily.
	Records []Record `json:"-"`
}

type header struct {
	Format string           `json:"format"`
	NGPUs  int              `json:"ngpus"`
	Comms  map[string][]int `json:"comms"`
}

const formatName = "atlahs-nsys-v1"

// Validate checks structural invariants.
func (r *Report) Validate() error {
	if r.NGPUs <= 0 {
		return fmt.Errorf("nsys: non-positive GPU count %d", r.NGPUs)
	}
	for name, members := range r.Comms {
		seen := map[int]bool{}
		for _, g := range members {
			if g < 0 || g >= r.NGPUs {
				return fmt.Errorf("nsys: comm %q member %d out of range", name, g)
			}
			if seen[g] {
				return fmt.Errorf("nsys: comm %q repeats GPU %d", name, g)
			}
			seen[g] = true
		}
	}
	for i := range r.Records {
		rec := &r.Records[i]
		if rec.GPU < 0 || rec.GPU >= r.NGPUs {
			return fmt.Errorf("nsys: record %d: GPU %d out of range", i, rec.GPU)
		}
		if rec.EndNs < rec.StartNs {
			return fmt.Errorf("nsys: record %d: end before start", i)
		}
		switch rec.Kind {
		case KindKernel:
		case KindNCCL:
			comm, ok := r.Comms[rec.Comm]
			if !ok {
				return fmt.Errorf("nsys: record %d: unknown communicator %q", i, rec.Comm)
			}
			found := false
			for _, g := range comm {
				if g == rec.GPU {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("nsys: record %d: GPU %d not in communicator %q", i, rec.GPU, rec.Comm)
			}
			if rec.Root < 0 || rec.Root >= len(comm) {
				return fmt.Errorf("nsys: record %d: root %d out of communicator %q range [0,%d)", i, rec.Root, rec.Comm, len(comm))
			}
			switch rec.Coll {
			case CollAllReduce, CollBroadcast, CollAllGather, CollReduceScatter, CollAllToAll:
			case CollSend, CollRecv:
				if rec.Peer < 0 || rec.Peer >= len(comm) {
					return fmt.Errorf("nsys: record %d: peer %d out of communicator range", i, rec.Peer)
				}
			default:
				return fmt.Errorf("nsys: record %d: unknown collective %q", i, rec.Coll)
			}
			if rec.Bytes < 0 {
				return fmt.Errorf("nsys: record %d: negative bytes", i)
			}
		default:
			return fmt.Errorf("nsys: record %d: unknown kind %q", i, rec.Kind)
		}
	}
	return nil
}

// Stream is one CUDA stream's activity: the records of one (gpu, stream)
// pair, as indices into Report.Records in start-time order.
type Stream struct {
	GPU, ID int
	Records []int32
}

// ByStream buckets the records by (gpu, stream) in one sort (stage 1 of
// the GOAL pipeline). Streams come in (gpu, stream id) order; within a
// stream, records that start together keep their trace order. All
// streams' index lists share one backing array.
func (r *Report) ByStream() []Stream {
	recs := r.Records
	order := make([]int32, len(recs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ra, rb := &recs[a], &recs[b]
		return cmp.Or(
			cmp.Compare(ra.GPU, rb.GPU),
			cmp.Compare(ra.Stream, rb.Stream),
			cmp.Compare(ra.StartNs, rb.StartNs),
			cmp.Compare(a, b), // tie-break on trace order: a stable sort
		)
	})
	var out []Stream
	for lo := 0; lo < len(order); {
		first := &recs[order[lo]]
		hi := lo + 1
		for hi < len(order) && recs[order[hi]].GPU == first.GPU && recs[order[hi]].Stream == first.Stream {
			hi++
		}
		out = append(out, Stream{GPU: first.GPU, ID: first.Stream, Records: order[lo:hi:hi]})
		lo = hi
	}
	return out
}

// WriteTo serialises the report as JSON lines.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	enc := json.NewEncoder(bw)
	hdrBytes, err := json.Marshal(header{Format: formatName, NGPUs: r.NGPUs, Comms: r.Comms})
	if err != nil {
		return 0, err
	}
	c, err := bw.Write(append(hdrBytes, '\n'))
	n += int64(c)
	if err != nil {
		return n, err
	}
	for i := range r.Records {
		before := bw.Buffered()
		if err := enc.Encode(&r.Records[i]); err != nil {
			return n, err
		}
		n += int64(bw.Buffered() - before)
	}
	return n, bw.Flush()
}

// Parse reads a JSON-lines report.
func Parse(rd io.Reader) (*Report, error) {
	br := bufio.NewReaderSize(rd, 1<<16)
	dec := json.NewDecoder(br)
	var hdr header
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("nsys: reading header: %w", err)
	}
	if hdr.Format != formatName {
		return nil, fmt.Errorf("nsys: unknown format %q", hdr.Format)
	}
	rep := &Report{NGPUs: hdr.NGPUs, Comms: hdr.Comms}
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("nsys: reading record %d: %w", len(rep.Records), err)
		}
		rep.Records = append(rep.Records, rec)
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}
