package backend_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"atlahs/internal/workload/micro"
	"atlahs/sim"
)

// runLGS runs s on the LogGOPS backend through sim.Run, the one engine
// selector, with the given worker budget.
func runLGS(t *testing.T, s *sim.Schedule, p sim.LogGOPS, workers int) *sim.Result {
	t.Helper()
	res, err := sim.Run(context.Background(), sim.Spec{Workload: sim.Workload{Schedule: s},
		Backend: "lgs",
		Config:  sim.LGSConfig{Params: p},
		Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

// sameRun asserts two runs are bit-identical: simulated runtime, every
// rank's completion time, and the executed op and event counts.
func sameRun(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	if got.Runtime != want.Runtime || got.Ops != want.Ops || got.Events != want.Events || !slices.Equal(got.RankEnd, want.RankEnd) {
		t.Fatalf("%s: runtime %v/%v ops %d/%d events %d/%d, or RankEnd differs",
			label, got.Runtime, want.Runtime, got.Ops, want.Ops, got.Events, want.Events)
	}
}

// TestRunParallelAutoSelection: sim.Run must give identical results to
// the serial path whatever the requested worker count, including the
// GOMAXPROCS default (workers < 0), and must run the parallel engine
// exactly when more than one worker is asked for.
func TestRunParallelAutoSelection(t *testing.T) {
	s := micro.BulkSynchronous(10, 4, 16384, 1500)
	serial := runLGS(t, s, sim.AIParams(), 1)
	if serial.Parallel {
		t.Fatal("Workers: 1 ran the parallel engine")
	}
	for _, workers := range []int{-1, 0, 1, 3, 8} {
		res := runLGS(t, s, sim.AIParams(), workers)
		label := fmt.Sprintf("workers=%d", workers)
		if res.Parallel != (res.Workers > 1) {
			t.Fatalf("%s: parallel=%v with %d resolved workers", label, res.Parallel, res.Workers)
		}
		if workers > 1 && res.Workers != workers {
			t.Fatalf("%s: resolved %d workers", label, res.Workers)
		}
		sameRun(t, label, res, serial)
	}
}

// TestZeroLatencyLGSFallsBackToSerial: LogGOPS with L = 0 gives the
// parallel engine no lookahead window, so sim.Run must run a Workers: 4
// spec on the serial engine, with the result of the Workers: 1 run.
func TestZeroLatencyLGSFallsBackToSerial(t *testing.T) {
	p := sim.AIParams()
	p.L = 0
	s := micro.Ring(8, 1024)
	got, want := runLGS(t, s, p, 4), runLGS(t, s, p, 1)
	if got.Parallel || got.Workers != 1 {
		t.Fatalf("L = 0 with Workers: 4 ran parallel=%v workers=%d, want the serial engine", got.Parallel, got.Workers)
	}
	sameRun(t, "zero-latency", got, want)
}
