package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"atlahs/internal/workload/hpcapps"
	"atlahs/sim"
)

const hpcServiceName = "hpc-service"

// hpcInputs are the hpc-service workload's generated inputs: one
// binary-GOAL schedule per mini-app, its in-process reference result, and
// the spec bodies a client submits.
type hpcInputs struct {
	apps    []hpcapps.App
	goalBin [][]byte
	refs    []*sim.Result
	// bodies[app][k] is the k-th new spec of a repetition for that app;
	// specs differ only in their Seed, which the lgs backend ignores, so
	// every body of one app shares the app's reference result.
	bodies [][][]byte
}

// hpcSpec is the spec a client submits: a mini-app as inline
// binary GOAL on lgs with the HPC LogGOPS parameters.
func hpcSpec(goalBin []byte, seed uint64) sim.Spec {
	return sim.Spec{
		Workload: sim.Workload{GoalBytes: goalBin},
		Backend:  "lgs",
		Config:   sim.LGSConfig{Params: sim.HPCParams()},
		Seed:     seed,
	}
}

// goalBytesPerRank sizes the mini-app traces: each app runs as many steps
// as bring its binary GOAL to about this many bytes per rank (512 KiB at
// 64 ranks). Left at one step count, the apps' specs would differ in size
// by 16x, so request latency would form one cluster per app and its
// percentiles would fall between clusters, moving with the app mix.
const goalBytesPerRank = 8 << 10

// hpcTrace generates one mini-app's MPI trace at the given step count and
// converts it through the mpi frontend (span frontend.convert) into binary
// GOAL (span goal.encode).
func hpcTrace(o options, app hpcapps.App, steps int, tr *tracer, acc *samples) ([]byte, error) {
	t, err := hpcapps.Generate(hpcapps.Config{App: app, Ranks: o.size.hpcRanks, Steps: steps, Seed: o.seed})
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", app, err)
	}
	var raw bytes.Buffer
	if _, err := t.WriteTo(&raw); err != nil {
		return nil, fmt.Errorf("writing %s trace: %w", app, err)
	}
	var sch *sim.Schedule
	c0 := readCounters()
	d, err := tr.timed("frontend.convert", -1, 0, func() (err error) {
		sch, err = sim.ConvertTrace(raw.Bytes(), "mpi", nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("converting %s: %w", app, err)
	}
	acc.convertMs = append(acc.convertMs, ms(d))
	acc.convertMB = append(acc.convertMB, float64(readCounters().allocBytes-c0.allocBytes)/(1<<20))
	var gb bytes.Buffer
	if d, err = tr.timed("goal.encode", -1, 0, func() error { return sim.WriteGOALBinary(&gb, sch) }); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", app, err)
	}
	acc.encodeMs = append(acc.encodeMs, ms(d))
	return gb.Bytes(), nil
}

// hpcSetup builds each mini-app's binary GOAL, sized by goalBytesPerRank
// from a ten-step probe, simulates each in process as the reference,
// marshals the spec bodies, and warms up with one closed-loop repetition.
func hpcSetup(o options, tr *tracer, acc *samples, chk *checks) (*hpcInputs, error) {
	in := &hpcInputs{apps: hpcapps.Apps()}
	newSpecs := (o.size.reqsPerRep + 3) / 4
	for _, app := range in.apps {
		const probeSteps = 10
		probe, err := hpcTrace(o, app, probeSteps, nil, newSamples())
		if err != nil {
			return nil, err
		}
		steps := max(1, int(math.Round(probeSteps*float64(goalBytesPerRank*o.size.hpcRanks)/float64(len(probe)))))
		gb, err := hpcTrace(o, app, steps, tr, acc)
		if err != nil {
			return nil, err
		}
		ref, err := sim.Run(context.Background(), hpcSpec(gb, 0))
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %w", app, err)
		}
		chk.op(replayProblems(string(app)+" reference run", ref, digest(ref))...)
		bodies := make([][]byte, newSpecs)
		for k := range bodies {
			if bodies[k], err = sim.MarshalSpec(hpcSpec(gb, uint64(k+1))); err != nil {
				return nil, fmt.Errorf("marshalling %s spec: %w", app, err)
			}
		}
		in.goalBin = append(in.goalBin, gb)
		in.refs = append(in.refs, ref)
		in.bodies = append(in.bodies, bodies)
	}
	rng := rand.New(rand.NewPCG(o.seed, 0))
	if err := closedLoop(o.workDir, nil, 0, planRequests(rng, o.size.reqsPerRep), in.newBody(rng), newSamples(), chk); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

// newBody returns a repetition's source of new specs. Each run of six new
// specs covers the six mini-apps once in a seeded order, so the app mix,
// and with it the body-size mix the latency percentiles depend on, is the
// same for every seed.
func (in *hpcInputs) newBody(rng *rand.Rand) func(k int) ([]byte, int, *sim.Result) {
	var perm []int
	return func(k int) ([]byte, int, *sim.Result) {
		if k%len(in.apps) == 0 {
			perm = rng.Perm(len(in.apps))
		}
		app := perm[k%len(in.apps)]
		return in.bodies[app][k], app, in.refs[app]
	}
}

// repetition runs the next closed-loop repetition against a fresh
// service, started from a collected heap; *rep numbers the repetitions so
// each draws its own request sequence.
func (in *hpcInputs) repetition(o options, tr *tracer, rep *int, acc *samples, chk *checks) error {
	*rep++
	rng := rand.New(rand.NewPCG(o.seed, uint64(*rep)))
	runtime.GC()
	c0 := readCounters()
	if err := closedLoop(o.workDir, tr, *rep*o.size.reqsPerRep, planRequests(rng, o.size.reqsPerRep), in.newBody(rng), acc, chk); err != nil {
		return err
	}
	acc.gc.add(c0, readCounters())
	return nil
}

// runService runs the hpc-service workload: one closed-loop client against
// atlahsd, one fresh service per repetition. Untraced, it times
// repetitions for the run's length and at least minHits hits, then
// measures peak RSS over untimed repetitions. Traced, it alternates
// untraced and traced repetitions, then replays one spec per mini-app in
// process three times to split the cold path into layers.
func runService(o options, tr *tracer, chk *checks, m map[string]metric, out io.Writer) error {
	reps := o.size.setupReps
	if o.trace {
		reps = 1
	}
	layers := newSamples()
	var in *hpcInputs
	var setupS, setupCPUS []float64
	for i := 0; i < reps; i++ {
		start := now()
		next, err := hpcSetup(o, tr, layers, chk)
		if err != nil {
			return err
		}
		wall, cpu := start.since()
		setupS, setupCPUS = append(setupS, wall.Seconds()), append(setupCPUS, cpu.Seconds())
		if in != nil {
			var p []string
			for app, ref := range next.refs {
				if got, want := digest(ref), digest(in.refs[app]); got != want {
					p = append(p, fmt.Sprintf("set-up %d %s digest %s, want %s", i, in.apps[app], got, want))
				}
			}
			chk.op(p...)
		}
		in = next
	}
	h := sha256.New()
	var makespans []string
	ops, goalBytes := int64(0), 0
	for i, ref := range in.refs {
		h.Write([]byte(digest(ref)))
		makespans = append(makespans, fmt.Sprintf("%s=%s", in.apps[i], ref.Runtime))
		ops += ref.Sched.Ops
		goalBytes += len(in.goalBin[i])
	}
	fmt.Fprintf(out, "perfbench: %s digest=%s makespan %s ops=%d goal_bytes=%d\n",
		hpcServiceName, hex.EncodeToString(h.Sum(nil))[:16], strings.Join(makespans, " "), ops, goalBytes)
	if o.tamper {
		for i, ref := range in.refs {
			bad := *ref
			bad.Runtime++
			in.refs[i] = &bad
		}
	}
	d := time.Duration(o.seconds * float64(time.Second))
	rep := 0
	if !o.trace {
		s := newSamples()
		for start := time.Now(); time.Since(start) < d || len(s.hitMs) < minHits; {
			if time.Since(start) > maxLoop {
				return fmt.Errorf("%d hits after %s, need %d", len(s.hitMs), maxLoop, minHits)
			}
			if err := in.repetition(o, nil, &rep, s, chk); err != nil {
				return err
			}
		}
		wall, cpu := totals(s.blocks)
		fmt.Fprintf(out, "perfbench: timed %d cold and %d hit requests over %d fresh services in %.1fs (%.1f CPU s)\n",
			len(s.coldMs), len(s.hitMs), rep, wall.Seconds(), cpu.Seconds())
		wallSummary(out, s, setupS)
		rss, err := peakRSS(repPeakRuns, func() error { return in.repetition(o, nil, &rep, newSamples(), chk) })
		if err != nil {
			return err
		}
		return endToEnd(m, s, rate(s.blocks, true, true), rss, setupCPUS)
	}

	// Untraced and traced repetitions alternate, so both halves see the
	// same machine conditions and their difference is the tracing overhead.
	base, s := newSamples(), newSamples()
	for start := time.Now(); time.Since(start) < d || len(base.hitMs) < minHits; {
		if time.Since(start) > maxLoop {
			return fmt.Errorf("%d untraced hits after %s, need %d", len(base.hitMs), maxLoop, minHits)
		}
		if err := in.repetition(o, nil, &rep, base, chk); err != nil {
			return err
		}
		if err := in.repetition(o, tr, &rep, s, chk); err != nil {
			return err
		}
	}
	if err := wallClock(m, base, rate(base.blocks, true, false)); err != nil {
		return err
	}
	gcLayer(m, base)
	var unattributed []float64
	for app := range in.apps {
		var inprocMs []float64
		for i := 0; i < 3; i++ {
			d, res, err := inProcess(tr, -1-3*app-i, in.bodies[app][0], layers)
			if err != nil {
				return fmt.Errorf("in-process replay of %s: %w", in.apps[app], err)
			}
			chk.op(replayProblems("in-process replay", res, digest(in.refs[app]))...)
			inprocMs = append(inprocMs, ms(d))
		}
		for _, c := range s.coldByApp[app] {
			unattributed = append(unattributed, c-median(inprocMs))
		}
	}
	m["frontend.convert_ms"] = metric{median(layers.convertMs), "ms"}
	m["frontend.alloc_mb"] = metric{median(layers.convertMB), "MB"}
	m["sim.fingerprint_ms"] = metric{median(layers.fingerprintMs), "ms"}
	m["sim.unmarshal_ms"] = metric{median(layers.unmarshalMs), "ms"}
	m["sim.marshal_ms"] = metric{median(layers.marshalMs), "ms"}
	m["goal.decode_ms"] = metric{median(layers.decodeMs), "ms"}
	m["goal.encode_ms"] = metric{median(layers.encodeMs), "ms"}
	m["goal.bytes_per_op"] = metric{float64(goalBytes) / float64(ops), "B/op"}
	engineLayer(m, layers.runs)
	serviceLayer(m, s, unattributed)
	traceLayer(m, tr, "service.request", s.hitMs, base.hitMs)
	return nil
}
