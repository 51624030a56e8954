package goal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary GOAL format ("GOAL schedules are stored and executed in a compact
// binary format", paper §2.1). The encoding is varint-based:
//
//	magic   "GOALB1\n"
//	uvarint nranks
//	per rank:
//	  uvarint nops
//	  per op:
//	    byte   kind | flags (hasTag<<2, hasCPU<<3)
//	    uvarint size
//	    send/recv: uvarint peer, [svarint tag], [uvarint cpu]
//	    calc:      [uvarint cpu]
//	  per op: uvarint ndeps,  svarint delta(i - dep) for requires
//	  per op: uvarint nideps, svarint delta(i - dep) for irequires
//
// Dependency targets are encoded as deltas from the dependent op index,
// which are small for the chain-heavy graphs trace conversion produces —
// this is what makes GOAL files several times smaller than Chakra ETs
// (paper Fig 9).

const binaryMagic = "GOALB1\n"

// MagicLen is the length of the binary GOAL header: the prefix a
// streaming loader must peek at before calling IsBinary.
const MagicLen = len(binaryMagic)

// IsBinary reports whether b starts with the binary GOAL header. It is
// the one test that tells binary GOAL from textual GOAL.
func IsBinary(b []byte) bool { return bytes.HasPrefix(b, []byte(binaryMagic)) }

// preallocCap bounds the capacity any single decode allocation may claim
// from a declared element count before the elements are actually read.
const preallocCap = 1 << 16

// capped clamps a declared count to the pre-allocation bound.
func capped(n uint64) int {
	if n > preallocCap {
		return preallocCap
	}
	return int(n)
}

// WriteBinary encodes the schedule in compact binary format.
func WriteBinary(w io.Writer, s *Schedule) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	putS := func(v int64) {
		n := binary.PutVarint(buf[:], v)
		bw.Write(buf[:n])
	}
	putU(uint64(s.NumRanks()))
	for r := range s.Ranks {
		rp := &s.Ranks[r]
		putU(uint64(len(rp.Ops)))
		for i := range rp.Ops {
			op := &rp.Ops[i]
			flags := byte(op.Kind)
			if op.Tag != 0 {
				flags |= 1 << 2
			}
			if op.CPU != 0 {
				flags |= 1 << 3
			}
			bw.WriteByte(flags)
			putU(uint64(op.Size))
			if op.Kind != KindCalc {
				putU(uint64(op.Peer))
				if flags&(1<<2) != 0 {
					putS(int64(op.Tag))
				}
			}
			if flags&(1<<3) != 0 {
				putU(uint64(op.CPU))
			}
		}
		writeDeps := func(deps [][]int32) {
			for i := range deps {
				putU(uint64(len(deps[i])))
				for _, d := range deps[i] {
					putS(int64(int32(i) - d))
				}
			}
		}
		writeDeps(rp.Requires)
		writeDeps(rp.IRequires)
	}
	return bw.Flush()
}

// bufVarintReader decodes varints from a bufio.Reader by peeking up to
// MaxVarintLen64 bytes and discarding the consumed prefix, instead of the
// byte-at-a-time ReadByte loop of binary.ReadUvarint. One Peek touches the
// buffered window directly, so the common case is a single bounds check
// plus the varint scan — about 3x fewer calls per field on dep-heavy
// schedules.
type bufVarintReader struct {
	br *bufio.Reader
}

func (d *bufVarintReader) uvarint() (uint64, error) {
	p, err := d.br.Peek(binary.MaxVarintLen64)
	if len(p) == 0 {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	v, n := binary.Uvarint(p)
	if n <= 0 {
		if n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("varint overflows 64 bits")
	}
	d.br.Discard(n)
	return v, nil
}

func (d *bufVarintReader) varint() (int64, error) {
	uv, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	// zig-zag decode, same transform as binary.Varint
	v := int64(uv >> 1)
	if uv&1 != 0 {
		v = ^v
	}
	return v, nil
}

// ReadBinary decodes a schedule from compact binary format and validates
// it. The streaming decoder reads through one buffered window with peeked
// varint decodes and packs dependency lists into per-rank arenas; for
// input already held in memory, ParseBinary avoids the reader entirely.
func ReadBinary(r io.Reader) (*Schedule, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("goal: reading magic: %w", err)
	}
	if !IsBinary(magic) {
		return nil, fmt.Errorf("goal: bad magic %q (not a binary GOAL file)", magic)
	}
	d := bufVarintReader{br: br}
	getU := d.uvarint
	getS := d.varint

	nranks, err := getU()
	if err != nil {
		return nil, fmt.Errorf("goal: reading rank count: %w", err)
	}
	if nranks == 0 || nranks > 1<<24 {
		return nil, fmt.Errorf("goal: implausible rank count %d", nranks)
	}
	// Declared counts are attacker-controlled in a malformed (or hostile)
	// file, so nothing is pre-allocated beyond preallocCap: slices grow as
	// elements actually decode, and a count pointing past the real input
	// fails at EOF after bounded memory instead of allocating gigabytes up
	// front (found by FuzzBinaryRoundTrip).
	s := &Schedule{Ranks: make([]RankProgram, 0, capped(nranks))}
	for r := 0; r < int(nranks); r++ {
		var rp RankProgram
		nops, err := getU()
		if err != nil {
			return nil, fmt.Errorf("goal: rank %d op count: %w", r, err)
		}
		if nops > 1<<30 {
			return nil, fmt.Errorf("goal: rank %d: implausible op count %d", r, nops)
		}
		rp.Ops = make([]Op, 0, capped(nops))
		for i := 0; i < int(nops); i++ {
			var op Op
			flags, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("goal: rank %d op %d: %w", r, i, err)
			}
			op.Kind = Kind(flags & 0x3)
			sz, err := getU()
			if err != nil {
				return nil, fmt.Errorf("goal: rank %d op %d size: %w", r, i, err)
			}
			op.Size = int64(sz)
			op.Peer = -1
			if op.Kind != KindCalc {
				peer, err := getU()
				if err != nil {
					return nil, fmt.Errorf("goal: rank %d op %d peer: %w", r, i, err)
				}
				op.Peer = int32(peer)
				if flags&(1<<2) != 0 {
					tag, err := getS()
					if err != nil {
						return nil, fmt.Errorf("goal: rank %d op %d tag: %w", r, i, err)
					}
					op.Tag = int32(tag)
				}
			}
			if flags&(1<<3) != 0 {
				cpu, err := getU()
				if err != nil {
					return nil, fmt.Errorf("goal: rank %d op %d cpu: %w", r, i, err)
				}
				op.CPU = int32(cpu)
			}
			rp.Ops = append(rp.Ops, op)
		}
		readDeps := func() ([][]int32, error) {
			var a depArena
			a.reserve(capped(nops), capped(nops))
			for i := 0; i < int(nops); i++ {
				n, err := getU()
				if err != nil {
					return nil, err
				}
				for j := uint64(0); j < n; j++ {
					delta, err := getS()
					if err != nil {
						return nil, err
					}
					a.push(int32(i) - int32(delta))
				}
				a.endList()
			}
			return a.views(), nil
		}
		if rp.Requires, err = readDeps(); err != nil {
			return nil, fmt.Errorf("goal: rank %d requires: %w", r, err)
		}
		if rp.IRequires, err = readDeps(); err != nil {
			return nil, fmt.Errorf("goal: rank %d irequires: %w", r, err)
		}
		s.Ranks = append(s.Ranks, rp)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
