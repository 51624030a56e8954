package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"atlahs/internal/service"
	"atlahs/results"
	"atlahs/sim"
)

// harness is one fresh atlahsd: the default service.Config with a
// temporary artifact directory and a discarded logger, behind
// service.NewHandler on a loopback listener.
type harness struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	dir    string
}

func startService(workDir string) (*harness, error) {
	dir, err := os.MkdirTemp(workDir, "atlahsd-")
	if err != nil {
		return nil, fmt.Errorf("creating artifact dir: %w", err)
	}
	svc, err := service.New(service.Config{ArtifactDir: dir, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &harness{
		svc:    svc,
		srv:    &http.Server{Handler: service.NewHandler(svc), ErrorLog: log.New(io.Discard, "", 0)},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
		dir:    dir,
	}
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

// stop shuts the server and the service down, waits for both, and removes
// the artifact directory.
func (h *harness) stop() error {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.svc.Close()
	if rerr := os.RemoveAll(h.dir); err == nil {
		err = rerr
	}
	return err
}

// runReply is the part of a POST /v1/runs response the client reads.
type runReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Result *struct {
		Sched struct {
			Ops int64 `json:"ops"`
		} `json:"sched"`
	} `json:"result"`
}

// reqOutcome is one client request: POST ?wait=1, then GET the artifact.
type reqOutcome struct {
	total, post, artifact time.Duration
	cpu                   time.Duration // process CPU time over total
	schedOps              int64
	art                   []byte
}

// request submits body and reads the run's artifact, timing from the POST
// send until the artifact is read, in wall time and in the CPU time of the
// process, which runs both client and service. The problems list what the response
// got wrong, including a Cache-Status other than the one predicted.
func (h *harness) request(tr *tracer, req int, body []byte, wantHit bool) (reqOutcome, []string, error) {
	var out reqOutcome
	var problems []string
	want := "miss"
	if wantHit {
		want = "hit"
	}
	root := tr.open("service.request", -1, req)
	start := now()
	var reply runReply
	post, err := tr.timed("service.post", root, req, func() error {
		resp, err := h.client.Post(h.base+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			problems = append(problems, fmt.Sprintf("POST status %d: %s", resp.StatusCode, bytes.TrimSpace(b)))
			return nil
		}
		if got := resp.Header.Get("Cache-Status"); got != want {
			problems = append(problems, fmt.Sprintf("POST Cache-Status %q, want %q", got, want))
		}
		return json.Unmarshal(b, &reply)
	})
	if err != nil {
		return out, nil, fmt.Errorf("submitting run: %w", err)
	}
	if reply.ID == "" || reply.Status != "done" || reply.Result == nil {
		return out, append(problems, fmt.Sprintf("run %q is %q, want done with a result", reply.ID, reply.Status)), nil
	}
	art, err := tr.timed("service.artifact", root, req, func() error {
		resp, err := h.client.Get(h.base + "/v1/runs/" + reply.ID + "/artifact")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if out.art, err = io.ReadAll(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			problems = append(problems, fmt.Sprintf("artifact status %d", resp.StatusCode))
		}
		return nil
	})
	if err != nil {
		return out, nil, fmt.Errorf("reading artifact: %w", err)
	}
	out.total, out.cpu = start.since()
	tr.close(root)
	out.post, out.artifact, out.schedOps = post, art, reply.Result.Sched.Ops
	return out, problems, nil
}

// cacheVerdicts reads the service's submission counters by cache verdict
// from GET /metrics?format=json.
func (h *harness) cacheVerdicts() (map[string]float64, error) {
	resp, err := h.client.Get(h.base + "/metrics?format=json")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	snap, err := results.DecodeMetricsJSON(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("decoding metrics: %w", err)
	}
	out := map[string]float64{}
	for _, m := range snap.Metrics {
		if m.Name == "atlahs_service_cache_requests_total" {
			out[m.LabelValue] += m.Value
		}
	}
	return out, nil
}

// artifactProblems decodes a run artifact with results.DecodeJSON and
// compares it with the in-process reference result: digest over makespan,
// per-rank completion and op tallies, plus op and event counts.
func artifactProblems(art []byte, ref *sim.Result) []string {
	sw, err := results.DecodeJSON(bytes.NewReader(art))
	if err != nil {
		return []string{fmt.Sprintf("artifact does not decode: %v", err)}
	}
	rank, end := sw.ColumnIndex("rank"), sw.ColumnIndex("end")
	if rank < 0 || end < 0 || len(sw.Rows) != len(ref.RankEnd) {
		return []string{fmt.Sprintf("artifact has %d rank rows, want %d", len(sw.Rows), len(ref.RankEnd))}
	}
	got := &sim.Result{
		Runtime: sim.Duration(sw.Derived["runtime_ps"]),
		RankEnd: make([]sim.Time, len(sw.Rows)),
		Done: sim.Tally{
			Calcs: int64(sw.Derived["done_calcs"]),
			Sends: int64(sw.Derived["done_sends"]),
			Recvs: int64(sw.Derived["done_recvs"]),
		},
		Net: ref.Net, // artifacts carry no fabric counters
	}
	for i, row := range sw.Rows {
		r, _ := row[rank].(int64)
		e, _ := row[end].(int64)
		if r != int64(i) {
			return []string{fmt.Sprintf("artifact row %d names rank %d", i, r)}
		}
		got.RankEnd[i] = sim.Time(e)
	}
	var p []string
	if g, w := digest(got), digest(ref); g != w {
		p = append(p, fmt.Sprintf("artifact digest %s, want %s", g, w))
	}
	if int64(sw.Derived["ops"]) != ref.Ops || uint64(sw.Derived["events"]) != ref.Events {
		p = append(p, fmt.Sprintf("artifact ops/events %v/%v, want %d/%d", sw.Derived["ops"], sw.Derived["events"], ref.Ops, ref.Events))
	}
	return p
}

// plannedReq is one request of the seeded closed-loop sequence.
type plannedReq struct {
	spec int  // index into the specs submitted so far in this repetition
	new  bool // first submission of that spec
}

// planRequests lays out n requests in blocks of four with exactly one new
// spec per block (the first request of all is new); the other three
// re-submit a uniformly chosen spec this client already completed, so
// every re-submission is a completed-cache hit, never a single-flight join.
func planRequests(rng *rand.Rand, n int) []plannedReq {
	var plan []plannedReq
	specs := 0
	for b := 0; len(plan) < n; b++ {
		newAt := rng.IntN(4)
		if b == 0 {
			newAt = 0
		}
		for i := 0; i < 4 && len(plan) < n; i++ {
			if i == newAt {
				plan = append(plan, plannedReq{spec: specs, new: true})
				specs++
				continue
			}
			plan = append(plan, plannedReq{spec: rng.IntN(specs)})
		}
	}
	return plan
}

// closedLoop runs one repetition: a fresh service and one client sending
// the planned requests back to back. newBody(k) returns the k-th new spec's
// body, its app index and its reference result; artifacts are verified
// after the loop so checking stays off the clock.
func closedLoop(workDir string, tr *tracer, reqBase int, plan []plannedReq,
	newBody func(k int) ([]byte, int, *sim.Result), acc *samples, chk *checks) error {
	h, err := startService(workDir)
	if err != nil {
		return err
	}
	type submitted struct {
		body []byte
		app  int
		ref  *sim.Result
	}
	var specs []submitted
	type pending struct {
		art  []byte
		ref  *sim.Result
		prob []string
	}
	var done []pending
	var b block
	for i, p := range plan {
		if p.new {
			body, app, ref := newBody(len(specs))
			specs = append(specs, submitted{body, app, ref})
		}
		s := specs[p.spec]
		out, problems, err := h.request(tr, reqBase+i, s.body, !p.new)
		if err != nil {
			h.stop()
			return err
		}
		b.requests++
		b.ops += float64(out.schedOps)
		b.wall += out.total
		b.cpu += out.cpu
		switch {
		case len(problems) > 0:
		case p.new:
			acc.coldMs = append(acc.coldMs, ms(out.total))
			acc.coldCPUMs = append(acc.coldCPUMs, ms(out.cpu))
			acc.coldByApp[s.app] = append(acc.coldByApp[s.app], ms(out.total))
		default:
			acc.hitMs = append(acc.hitMs, ms(out.total))
			acc.hitCPUMs = append(acc.hitCPUMs, ms(out.cpu))
			acc.postMs = append(acc.postMs, ms(out.post))
			acc.artMs = append(acc.artMs, ms(out.artifact))
		}
		done = append(done, pending{out.art, s.ref, problems})
	}
	acc.blocks = append(acc.blocks, b)
	acc.requests += int64(len(plan))
	verdicts, err := h.cacheVerdicts()
	if serr := h.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	hits, news := 0.0, 0.0
	for _, p := range plan {
		if p.new {
			news++
		} else {
			hits++
		}
	}
	var counted []string
	if got := verdicts["hit"] + verdicts["lookaside"]; got != hits || verdicts["miss"] != news {
		counted = append(counted, fmt.Sprintf("service counted %v hits and %v misses, the plan makes %v and %v", got, verdicts["miss"], hits, news))
	}
	chk.op(counted...)
	for k, v := range verdicts {
		acc.verdicts[k] += v
	}
	for _, d := range done {
		if len(d.prob) == 0 {
			d.prob = artifactProblems(d.art, d.ref)
		}
		chk.op(d.prob...)
	}
	return nil
}

// inProcess replays a submitted body through the calls the service makes
// for a cold run — sim.UnmarshalSpec, sim.MarshalSpec (the lookaside key's
// canonical re-encode), workload resolution (frontend conversion or GOAL
// decode), sim.ResolveSpec (the fingerprint) and sim.Run — with the engine
// workers the default service.Config grants one executor slot. The
// result's host time is the cold latency that queueing, HTTP, artifact
// export and persistence do not explain.
func inProcess(tr *tracer, req int, body []byte, acc *samples) (time.Duration, *sim.Result, error) {
	root := tr.open("inprocess.cold", -1, req)
	start := time.Now()
	var spec sim.Spec
	d, err := tr.timed("sim.unmarshal", root, req, func() (err error) {
		spec, err = sim.UnmarshalSpec(body)
		return err
	})
	if err != nil {
		return 0, nil, fmt.Errorf("unmarshalling spec: %w", err)
	}
	acc.unmarshalMs = append(acc.unmarshalMs, ms(d))
	if d, err = tr.timed("sim.marshal", root, req, func() error {
		_, err := sim.MarshalSpec(spec)
		return err
	}); err != nil {
		return 0, nil, fmt.Errorf("marshalling spec: %w", err)
	}
	acc.marshalMs = append(acc.marshalMs, ms(d))
	var sch *sim.Schedule
	if len(spec.Trace) > 0 {
		d, err = tr.timed("frontend.convert", root, req, func() (err error) {
			sch, err = sim.ConvertTrace(spec.Trace, spec.Frontend, spec.FrontendConfig)
			return err
		})
		acc.convertMs = append(acc.convertMs, ms(d))
	} else {
		d, err = tr.timed("goal.decode", root, req, func() (err error) {
			sch, err = sim.DecodeGOAL(spec.GoalBytes)
			return err
		})
		acc.decodeMs = append(acc.decodeMs, ms(d))
	}
	if err != nil {
		return 0, nil, fmt.Errorf("resolving workload: %w", err)
	}
	spec.Workload = sim.Workload{Schedule: sch}
	if spec.Workers > 1 {
		const defaultJobs = 2 // service.Config's default executor slots
		spec.Workers = min(spec.Workers, max(1, runtime.GOMAXPROCS(0)/defaultJobs))
	}
	var pinned sim.Spec
	if d, err = tr.timed("sim.fingerprint", root, req, func() (err error) {
		pinned, _, err = sim.ResolveSpec(spec)
		return err
	}); err != nil {
		return 0, nil, fmt.Errorf("resolving spec: %w", err)
	}
	acc.fingerprintMs = append(acc.fingerprintMs, ms(d))
	res, err := acc.run(tr, root, req, pinned)
	if err != nil {
		return 0, nil, err
	}
	total := time.Since(start)
	tr.close(root)
	return total, res, nil
}
