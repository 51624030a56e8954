// Paired perf benchmarks for the allocation-lean hot path work: each
// benchmark pins one before/after pair (cold-vs-hit style) so
// BENCH_ci.json records both sides of the trade and the analyze gate can
// watch them drift. The shared workload is a 64-rank, multi-hundred-
// thousand-op seeded schedule — big enough that allocation behaviour
// dominates, small enough for bench-smoke's -benchtime 3x.
package atlahs

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"atlahs/internal/goal"
	"atlahs/internal/workload/micro"
	"atlahs/sim"
)

// perfWorkload is the shared large schedule plus its binary encoding,
// built once (80k messages -> 240k ops over 64 ranks, chain-heavy like
// trace-converted GOAL).
var perfWorkload = sync.OnceValue(func() (w struct {
	s   *goal.Schedule
	ops int64
	enc []byte
}) {
	w.s = micro.UniformRandom(64, 80_000, 4096, 7)
	w.ops = w.s.ComputeStats().Ops
	var buf bytes.Buffer
	if err := goal.WriteBinary(&buf, w.s); err != nil {
		panic(err)
	}
	w.enc = buf.Bytes()
	return w
})

// BenchmarkGoalDecodeReaderVsZeroCopy pairs the two binary-GOAL decoders
// on the same encoded bytes: the buffered streaming reader versus the
// zero-copy in-memory parse (exact-sized ops and dependency arenas).
func BenchmarkGoalDecodeReaderVsZeroCopy(b *testing.B) {
	w := perfWorkload()
	b.Run("reader", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(w.enc)))
		for i := 0; i < b.N; i++ {
			s, err := goal.ReadBinary(bytes.NewReader(w.enc))
			if err != nil {
				b.Fatal(err)
			}
			if int64(s.ComputeStats().Ops) != w.ops {
				b.Fatal("short decode")
			}
		}
	})
	b.Run("zerocopy", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(w.enc)))
		for i := 0; i < b.N; i++ {
			s, err := goal.ParseBinary(w.enc)
			if err != nil {
				b.Fatal(err)
			}
			if int64(s.ComputeStats().Ops) != w.ops {
				b.Fatal("short decode")
			}
		}
	})
}

// BenchmarkTelemetryOffVsOn pairs the observability tax: the shared
// schedule through the sim facade with telemetry off (the default — the
// per-run metrics snapshot is always assembled, so "off" carries it)
// versus with a timeline recorder attached, which touches every op
// completion and every parallel window. The off side must stay on the
// allocation-lean hot path; the on side bounds what -timeline and the
// service's trace recording cost.
func BenchmarkTelemetryOffVsOn(b *testing.B) {
	w := perfWorkload()
	base := sim.Spec{Workload: sim.Workload{Schedule: w.s}, Backend: "lgs", Workers: 4}
	run := func(b *testing.B, tl *sim.Timeline) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec := base
			if tl != nil {
				tl.Reset()
				spec.Timeline = tl
			}
			res, err := sim.Run(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Ops != w.ops {
				b.Fatal("incomplete run")
			}
			if tl != nil && tl.Dropped() > 0 {
				b.Fatal("timeline recorder overflowed; raise the benchmark's event bound")
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("timeline", func(b *testing.B) { run(b, sim.NewTimeline(1<<20)) })
}
