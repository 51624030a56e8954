package goal

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// arenaFixture builds a small schedule exercising every op attribute and
// both dependency kinds.
func arenaFixture() *Schedule {
	b := NewBuilder(3)
	r0 := b.Rank(0)
	c := r0.Calc(100)
	cc := r0.CalcOn(250, 2)
	s1 := r0.Send(64, 1, 0)
	s2 := r0.SendOn(300000, 2, 42, 1)
	r0.Requires(s2, c, s1)
	r0.IRequires(s2, cc)
	r1 := b.Rank(1)
	r1.Recv(64, 0, 0)
	r2 := b.Rank(2)
	rv := r2.RecvOn(300000, 0, 42, 3)
	w := r2.Calc(7)
	r2.Requires(w, rv)
	return b.MustBuild()
}

func TestPackDepsSharesOneArena(t *testing.T) {
	in := [][]int32{nil, {0}, nil, {1, 2}, {0, 1, 3}}
	out := packDeps(in)
	if !reflect.DeepEqual(out, [][]int32{nil, {0}, nil, {1, 2}, {0, 1, 3}}) {
		t.Fatalf("packDeps changed values: %v", out)
	}
	// Views are capped: appending to one must not overwrite its neighbor.
	grown := append(out[1], 99)
	_ = grown
	if out[3][0] != 1 {
		t.Fatalf("append through view corrupted neighbor: %v", out[3])
	}
	// Mutating the input after packing must not affect the copy.
	in[3][0] = 77
	if out[3][0] != 1 {
		t.Fatal("packDeps aliased its input")
	}
}

func TestPackDepsEmpty(t *testing.T) {
	if out := packDeps(nil); out == nil || len(out) != 0 {
		t.Fatalf("packDeps(nil) = %#v, want empty non-nil", out)
	}
	out := packDeps([][]int32{nil, {}})
	if len(out) != 2 || out[0] != nil || out[1] != nil {
		t.Fatalf("empty lists must pack to nil views, got %#v", out)
	}
}

func TestDepArenaViews(t *testing.T) {
	var a depArena
	a.reserve(3, 4)
	a.push(1)
	a.push(2)
	a.endList()
	a.endList() // empty list
	a.push(3)
	a.endList()
	got := a.views()
	want := [][]int32{{1, 2}, nil, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("views = %v, want %v", got, want)
	}
}

func TestParseBinaryMatchesReadBinary(t *testing.T) {
	s := arenaFixture()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	fromReader, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromBytes, err := ParseBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromReader, fromBytes) {
		t.Fatalf("decoders disagree:\nReadBinary:  %+v\nParseBinary: %+v", fromReader, fromBytes)
	}
	if !reflect.DeepEqual(fromBytes.Ranks, s.Ranks) {
		t.Fatalf("ParseBinary round trip changed the schedule:\nin:  %+v\nout: %+v", s.Ranks, fromBytes.Ranks)
	}
}

func TestParseBinaryErrors(t *testing.T) {
	s := arenaFixture()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "bad magic"},
		{"text", []byte("num_ranks 1\n"), "bad magic"},
		{"magic only", []byte("GOALB1\n"), "rank count"},
		{"zero ranks", append([]byte("GOALB1\n"), 0), "implausible rank count"},
		{"hostile rank count", append([]byte("GOALB1\n"), 0xe8, 0x07), "exceeds remaining input"}, // 1000 ranks, 0 bytes left
		{"hostile op count", append([]byte("GOALB1\n"), 1, 0xff, 0xff, 0x7f), "exceeds remaining input"},
		{"truncated", enc[:len(enc)-3], ""}, // any error is fine, must not panic
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseBinary(tc.data)
			if err == nil {
				t.Fatal("ParseBinary accepted corrupt input")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBuildAllocsPerRank pins the arena layout: Build must cost a
// constant number of allocations per rank regardless of op count.
func TestBuildAllocsPerRank(t *testing.T) {
	b := NewBuilder(1)
	rb := b.Rank(0)
	prev := rb.Calc(1)
	for i := 0; i < 999; i++ {
		cur := rb.Calc(1)
		rb.Requires(cur, prev)
		prev = cur
	}
	allocs := testing.AllocsPerRun(10, func() {
		_ = b.Build()
	})
	// Schedule + Ranks + Ops + 2 dep tables + 1 arena and its offsets
	// (IRequires is all empty, no arena) ≈ 7; leave headroom but stay far
	// below the ~1000 a per-op copy would cost.
	if allocs > 12 {
		t.Fatalf("Build allocated %.0f times for a 1000-op rank; arena layout should need ~7", allocs)
	}
}

// TestBuilderAllocsPerOp pins the flat-edge builder: constructing a
// 10k-op dependency chain, Build included, costs amortised slice growth,
// not an allocation per op or per dependency.
func TestBuilderAllocsPerOp(t *testing.T) {
	const n = 10000
	allocs := testing.AllocsPerRun(5, func() {
		b := NewBuilder(2)
		rb := b.Rank(1)
		prev := rb.Calc(1)
		for i := 1; i < n; i++ {
			cur := b.Rank(1).Calc(1)
			rb.Requires(cur, prev)
			prev = cur
		}
		_ = b.Build()
	})
	// about 20 growth steps each for ops and edges plus a handful for
	// Build; a per-op list would cost ≥ n.
	t.Logf("%d-op chain: %.0f allocations", n, allocs)
	if allocs > n/100 {
		t.Fatalf("building a %d-op chain allocated %.0f times, want ≤ %d", n, allocs, n/100)
	}
}

// TestBuilderPacksEdgesInOrder checks Build's counting sort: edges added
// out of op order land in each op's list in insertion order, exactly as a
// per-op append would have left them.
func TestBuilderPacksEdgesInOrder(t *testing.T) {
	b := NewBuilder(1)
	rb := b.Rank(0)
	for i := 0; i < 5; i++ {
		rb.Calc(1)
	}
	rb.Requires(4, 2)
	rb.Requires(1, 0)
	rb.Requires(4, 0, 3)
	rb.IRequires(3, 1)
	rb.Requires(4, 1)
	rb.IRequires(3, 0)
	s := b.MustBuild()
	wantReq := [][]int32{nil, {0}, nil, nil, {2, 0, 3, 1}}
	wantIReq := [][]int32{nil, nil, nil, {1, 0}, nil}
	if !reflect.DeepEqual(s.Ranks[0].Requires, wantReq) || !reflect.DeepEqual(s.Ranks[0].IRequires, wantIReq) {
		t.Fatalf("Requires %v IRequires %v, want %v %v", s.Ranks[0].Requires, s.Ranks[0].IRequires, wantReq, wantIReq)
	}
	// the views are capped: growing one list must not clobber the next
	_ = append(s.Ranks[0].Requires[1], 99)
	if s.Ranks[0].Requires[4][0] != 2 {
		t.Fatalf("append through a view corrupted its neighbour: %v", s.Ranks[0].Requires[4])
	}
	// Build leaves the builder usable and shares nothing with its output
	rb.Requires(2, 1)
	if s.Ranks[0].Requires[2] != nil {
		t.Fatal("a built schedule changed when its builder grew")
	}
	if got := b.Build().Ranks[0].Requires[2]; !reflect.DeepEqual(got, []int32{1}) {
		t.Fatalf("rebuilt Requires[2] = %v, want [1]", got)
	}
}

func TestBuilderDependencyOnMissingOpPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		add  func(rb *RankBuilder)
	}{
		{"requires past end", func(rb *RankBuilder) { rb.Requires(1, 0) }},
		{"irequires past end", func(rb *RankBuilder) { rb.IRequires(5, 0) }},
		{"negative op", func(rb *RankBuilder) { rb.Requires(-1, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rb := NewBuilder(1).Rank(0)
			rb.Calc(1)
			defer func() {
				if recover() == nil {
					t.Fatal("dependency on a missing op accepted")
				}
			}()
			tc.add(rb)
		})
	}
}
