package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"atlahs/internal/workload/llm"
	"atlahs/internal/workload/oltp"
	"atlahs/sim"
)

// replayWorkload replays one generated application trace through a
// frontend and a backend. A cold replay starts from the raw trace bytes
// (frontend conversion, fingerprint, simulation); a hit replay starts from
// the binary GOAL the conversion produced (decode, simulation), the way a
// converted schedule is reused across simulations.
type replayWorkload struct {
	name     string
	frontend string
	fcfg     any
	backend  string
	bcfg     any
	workers  int
	// gen renders the seeded generator's output as raw trace bytes.
	gen func(seed uint64, sz sizing) ([]byte, error)
}

var aiNsysLGS = replayWorkload{
	name:     "ai-nsys-lgs",
	frontend: "nsys",
	fcfg:     sim.NsysConfig{GPUsPerNode: 4},
	backend:  "lgs",
	workers:  2,
	gen: func(seed uint64, sz sizing) ([]byte, error) {
		rep, err := llm.Generate(llm.Config{
			Model:      llm.Llama7B(),
			Par:        llm.Parallelism{TP: 1, PP: 1, DP: sz.llmDP, EP: 1, GlobalBatch: sz.llmDP},
			Iterations: 2,
			Scale:      5e-5,
			Seed:       seed,
		})
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		_, err = rep.WriteTo(&b)
		return b.Bytes(), err
	},
}

var storageSPCPkt = replayWorkload{
	name:     "storage-spc-pkt",
	frontend: "spc",
	fcfg:     sim.SPCConfig{Hosts: 8, CCS: 2, BSS: 8},
	backend:  "pkt",
	bcfg:     sim.PktConfig{HostsPerToR: 4, Cores: 1, CC: "mprdma", Seed: 1},
	gen: func(seed uint64, sz sizing) ([]byte, error) {
		var b bytes.Buffer
		_, err := oltp.GenerateFinancial(oltp.FinancialConfig{Ops: sz.oltpOps, Seed: seed}).WriteTo(&b)
		return b.Bytes(), err
	},
}

// replayInputs are a replay workload's generated inputs plus the
// reference outcome every replay must reproduce.
type replayInputs struct {
	raw, goalBin []byte
	ref          *sim.Result
	refDigest    string
}

// spec returns the workload's spec around a workload source.
func (w *replayWorkload) spec(src sim.Workload) sim.Spec {
	return sim.Spec{Workload: src, Backend: w.backend, Config: w.bcfg, Workers: w.workers}
}

// cold replays from the raw trace: sim.ConvertTrace, then sim.ResolveSpec
// on the converted schedule (the fingerprint), then sim.Run on the pinned
// spec — the calls sim.ResolveSpec on the raw spec makes, split so each
// layer is timed on its own.
func (w *replayWorkload) cold(tr *tracer, req int, in *replayInputs, acc *samples) (*sim.Result, error) {
	root := tr.open("replay.cold", -1, req)
	start := now()
	var (
		sch    *sim.Schedule
		pinned sim.Spec
		res    *sim.Result
	)
	c0 := readCounters()
	convert, err := tr.timed("frontend.convert", root, req, func() (err error) {
		sch, err = sim.ConvertTrace(in.raw, w.frontend, w.fcfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: converting trace: %w", w.name, err)
	}
	c1 := readCounters()
	fp, err := tr.timed("sim.fingerprint", root, req, func() (err error) {
		pinned, _, err = sim.ResolveSpec(w.spec(sim.Workload{Schedule: sch}))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: resolving spec: %w", w.name, err)
	}
	if res, err = acc.run(tr, root, req, pinned); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	wall, cpu := start.since()
	tr.close(root)
	acc.coldMs = append(acc.coldMs, ms(wall))
	acc.coldCPUMs = append(acc.coldCPUMs, ms(cpu))
	acc.convertMs = append(acc.convertMs, ms(convert))
	acc.convertMB = append(acc.convertMB, float64(c1.allocBytes-c0.allocBytes)/(1<<20))
	acc.fingerprintMs = append(acc.fingerprintMs, ms(fp))
	return res, nil
}

// hit replays from the converted binary GOAL: sim.DecodeGOAL, then sim.Run.
func (w *replayWorkload) hit(tr *tracer, req int, in *replayInputs, acc *samples) (*sim.Result, error) {
	root := tr.open("replay.hit", -1, req)
	start := now()
	var (
		sch *sim.Schedule
		res *sim.Result
	)
	decode, err := tr.timed("goal.decode", root, req, func() (err error) {
		sch, err = sim.DecodeGOAL(in.goalBin)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: decoding GOAL: %w", w.name, err)
	}
	if _, err := tr.timed("engine.run", root, req, func() (err error) {
		res, err = sim.Run(context.Background(), w.spec(sim.Workload{Schedule: sch}))
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: simulating: %w", w.name, err)
	}
	wall, cpu := start.since()
	tr.close(root)
	acc.hitMs = append(acc.hitMs, ms(wall))
	acc.hitCPUMs = append(acc.hitCPUMs, ms(cpu))
	acc.decodeMs = append(acc.decodeMs, ms(decode))
	return res, nil
}

// setup generates the raw trace from the seed, converts and encodes it
// into the hit path's binary GOAL, and warms up with one replay of each
// kind, whose cold result becomes the reference.
func (w *replayWorkload) setup(seed uint64, sz sizing, chk *checks) (*replayInputs, error) {
	raw, err := w.gen(seed, sz)
	if err != nil {
		return nil, fmt.Errorf("%s: generating trace: %w", w.name, err)
	}
	in := &replayInputs{raw: raw}
	sch, err := sim.ConvertTrace(raw, w.frontend, w.fcfg)
	if err != nil {
		return nil, fmt.Errorf("%s: converting trace: %w", w.name, err)
	}
	var gb bytes.Buffer
	if err := sim.WriteGOALBinary(&gb, sch); err != nil {
		return nil, fmt.Errorf("%s: encoding GOAL: %w", w.name, err)
	}
	in.goalBin = gb.Bytes()
	acc := newSamples()
	if in.ref, err = w.cold(nil, 0, in, acc); err != nil {
		return nil, err
	}
	in.refDigest = digest(in.ref)
	chk.op(replayProblems("warm-up cold replay", in.ref, in.refDigest)...)
	res, err := w.hit(nil, 0, in, acc)
	if err != nil {
		return nil, err
	}
	chk.op(replayProblems("warm-up hit replay", res, in.refDigest)...)
	return in, nil
}

// serialCheck replays the workload on the serial engine; a parallel-engine
// workload must reproduce its reference digest exactly.
func (w *replayWorkload) serialCheck(in *replayInputs, chk *checks) error {
	if w.workers <= 1 {
		return nil
	}
	sp := w.spec(sim.Workload{GoalBytes: in.goalBin})
	sp.Workers = 1
	res, err := sim.Run(context.Background(), sp)
	if err != nil {
		return fmt.Errorf("%s: serial replay: %w", w.name, err)
	}
	chk.op(replayProblems("serial-engine replay", res, in.refDigest)...)
	return nil
}

// block runs one cold replay and hitsPerCold hit replays, numbering them
// from *req and checking each against the reference. Each replay starts
// from a collected heap, as a fresh replay process does; only the replay
// itself is timed.
func (w *replayWorkload) block(tr *tracer, req *int, in *replayInputs, acc *samples, chk *checks) error {
	var b block
	for j := 0; j <= hitsPerCold; j++ {
		*req++
		replay, what := w.hit, "hit replay"
		if j == 0 {
			replay, what = w.cold, "cold replay"
		}
		runtime.GC()
		c0 := readCounters()
		start := now()
		res, err := replay(tr, *req, in, acc)
		if err != nil {
			return err
		}
		wall, cpu := start.since()
		acc.gc.add(c0, readCounters())
		b.requests++
		b.ops += float64(res.Sched.Ops)
		b.wall += wall
		b.cpu += cpu
		chk.op(replayProblems(what, res, in.refDigest)...)
	}
	acc.blocks = append(acc.blocks, b)
	acc.requests += int64(b.requests)
	return nil
}

// runReplay runs a replay workload. Untraced, it times blocks of cold and
// hit replays for the run's length and at least minHits hits, then
// measures the cold replay's peak RSS in untimed replays. Traced, it
// alternates untraced blocks (the overhead baseline, the wall-clock
// metrics and the GC numbers) with traced ones, then times GOAL encoding,
// which the replays do not reach. The service and spec codec layers
// belong to hpc-service and read 0 here.
func runReplay(w *replayWorkload, o options, tr *tracer, chk *checks, m map[string]metric, out io.Writer) error {
	reps := o.size.setupReps
	if o.trace {
		reps = 1
	}
	var in *replayInputs
	var setupS, setupCPUS []float64
	for i := 0; i < reps; i++ {
		start := now()
		next, err := w.setup(o.seed, o.size, chk)
		if err != nil {
			return err
		}
		wall, cpu := start.since()
		setupS, setupCPUS = append(setupS, wall.Seconds()), append(setupCPUS, cpu.Seconds())
		if in != nil && next.refDigest != in.refDigest {
			chk.op(fmt.Sprintf("set-up %d digest %s, want %s", i, next.refDigest, in.refDigest))
		}
		in = next
	}
	if err := w.serialCheck(in, chk); err != nil {
		return err
	}
	fmt.Fprintf(out, "perfbench: %s digest=%s makespan=%s ops=%d events=%d trace_bytes=%d goal_bytes=%d\n",
		w.name, in.refDigest, in.ref.Runtime, in.ref.Sched.Ops, in.ref.Events, len(in.raw), len(in.goalBin))
	if o.tamper {
		in.refDigest = "tampered"
	}
	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		s := newSamples()
		req := 0
		for start := time.Now(); time.Since(start) < d || len(s.hitMs) < minHits; {
			if time.Since(start) > maxLoop {
				return fmt.Errorf("%s: %d hit replays after %s, need %d", w.name, len(s.hitMs), maxLoop, minHits)
			}
			if err := w.block(nil, &req, in, s, chk); err != nil {
				return err
			}
		}
		wall, cpu := totals(s.blocks)
		fmt.Fprintf(out, "perfbench: timed %d cold and %d hit replays in %.1fs (%.1f CPU s)\n", len(s.coldMs), len(s.hitMs), wall.Seconds(), cpu.Seconds())
		wallSummary(out, s, setupS)
		rss, err := peakRSS(coldPeakRuns, func() error {
			req++
			res, err := w.cold(nil, req, in, newSamples())
			if err != nil {
				return err
			}
			chk.op(replayProblems("peak-RSS cold replay", res, in.refDigest)...)
			return nil
		})
		if err != nil {
			return err
		}
		return endToEnd(m, s, float64(in.ref.Sched.Ops)/(median(s.coldCPUMs)/1e3), rss, setupCPUS)
	}

	// Untraced and traced blocks alternate, so both halves see the same
	// machine conditions and their difference is the tracing overhead.
	base, s := newSamples(), newSamples()
	req := 0
	for start := time.Now(); time.Since(start) < d || len(base.hitMs) < minHits; {
		if time.Since(start) > maxLoop {
			return fmt.Errorf("%s: %d untraced hit replays after %s, need %d", w.name, len(base.hitMs), maxLoop, minHits)
		}
		if err := w.block(nil, &req, in, base, chk); err != nil {
			return err
		}
		if err := w.block(tr, &req, in, s, chk); err != nil {
			return err
		}
	}
	if err := wallClock(m, base, float64(in.ref.Sched.Ops)/(median(base.coldMs)/1e3)); err != nil {
		return err
	}
	gcLayer(m, base)
	sch, err := sim.DecodeGOAL(in.goalBin)
	if err != nil {
		return fmt.Errorf("%s: decoding GOAL: %w", w.name, err)
	}
	for i := 0; i < 3; i++ {
		d, err := tr.timed("goal.encode", -1, 0, func() error { return sim.WriteGOALBinary(io.Discard, sch) })
		if err != nil {
			return fmt.Errorf("%s: encoding GOAL: %w", w.name, err)
		}
		s.encodeMs = append(s.encodeMs, ms(d))
	}

	m["frontend.convert_ms"] = metric{median(s.convertMs), "ms"}
	m["frontend.alloc_mb"] = metric{median(s.convertMB), "MB"}
	m["sim.fingerprint_ms"] = metric{median(s.fingerprintMs), "ms"}
	m["sim.unmarshal_ms"] = metric{0, "ms"}
	m["sim.marshal_ms"] = metric{0, "ms"}
	m["goal.decode_ms"] = metric{median(s.decodeMs), "ms"}
	m["goal.encode_ms"] = metric{median(s.encodeMs), "ms"}
	m["goal.bytes_per_op"] = metric{float64(len(in.goalBin)) / float64(in.ref.Sched.Ops), "B/op"}
	engineLayer(m, s.runs)
	serviceLayer(m, newSamples(), nil)
	traceLayer(m, tr, "replay.cold", s.coldMs, base.coldMs)
	return nil
}
