package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"atlahs/sim"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// processCPU is the CPU time all of the process's threads have used. The
// kernel does not count time the hypervisor steals from a virtual CPU as
// CPU time, so on a shared host it stays steady where wall time does not.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clock reads wall and process CPU time together.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func now() clock { return clock{time.Now(), processCPU()} }

// since returns the wall and CPU time elapsed since c.
func (c clock) since() (wall, cpu time.Duration) {
	return time.Since(c.wall), processCPU() - c.cpu
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// digest fingerprints a result's simulated outcome — makespan, per-rank
// completion, executed-op tallies and fabric counters — so repeats, engines
// and the service can be compared for bit-identical output.
func digest(res *sim.Result) string {
	h := sha256.New()
	var b []byte
	b = binary.AppendVarint(b, int64(res.Runtime))
	b = binary.AppendVarint(b, int64(len(res.RankEnd)))
	for _, t := range res.RankEnd {
		b = binary.AppendVarint(b, int64(t))
	}
	b = binary.AppendVarint(b, res.Done.Calcs)
	b = binary.AppendVarint(b, res.Done.Sends)
	b = binary.AppendVarint(b, res.Done.Recvs)
	if n := res.Net; n != nil {
		for _, v := range []uint64{n.PktsSent, n.PktsDelivered, n.Drops, n.Trims, n.CtrlPkts, n.Retransmits, n.MsgsCompleted} {
			b = binary.AppendUvarint(b, v)
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checks counts correctness failures against the operations attempted:
// each replay or request is one operation, failed when any of its checks
// fails.
type checks struct {
	attempted, failed int64
	shown             int
}

// op records one operation whose checks produced problems (empty: passed).
func (c *checks) op(problems ...string) {
	c.attempted++
	if len(problems) == 0 {
		return
	}
	c.failed++
	if c.shown < 10 {
		c.shown++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", strings.Join(problems, "; "))
	}
}

// replayProblems checks one replay: every scheduled op completed and the
// simulated outcome matches the reference digest.
func replayProblems(what string, res *sim.Result, want string) []string {
	var p []string
	if res.Ops != res.Sched.Ops {
		p = append(p, fmt.Sprintf("%s completed %d of %d scheduled ops", what, res.Ops, res.Sched.Ops))
	}
	if got := digest(res); got != want {
		p = append(p, fmt.Sprintf("%s digest %s, want %s", what, got, want))
	}
	return p
}

// envStamp identifies the host and build a measurement came from.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func stamp() envStamp {
	return envStamp{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit()}
}

func (e envStamp) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s", e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit)
}

// commit reads the checked-out revision from ./.git without running git;
// "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return shortRev(ref)
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return shortRev(strings.TrimSpace(string(b)))
	}
	f, err := os.Open(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rev, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return shortRev(rev)
		}
	}
	return "unknown"
}

func shortRev(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}

// startPeak collects the heap, returns the freed pages to the operating
// system and resets the process's resident-set high-water mark, so the
// next peakRSSMB reading covers only what runs in between, started from
// the live heap alone as in a fresh process.
func startPeak() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// the last startPeak.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeCounters reads the runtime/metrics counters the benchmark turns
// into allocation and GC numbers, plus the process's CPU time.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, processCPU                  float64
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readCounters() runtimeCounters {
	s := slices.Clone(counterSamples)
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		processCPU:   processCPU().Seconds(),
	}
}

// gcWindows sums GC work over the timed windows only, so the collection
// each replay or repetition starts from is not counted.
type gcWindows struct {
	cycles     uint64
	gcCPU, cpu float64
}

// add accumulates the window between two readings.
func (g *gcWindows) add(a, b runtimeCounters) {
	g.cycles += b.gcCycles - a.gcCycles
	g.gcCPU += b.gcCPU - a.gcCPU
	g.cpu += b.processCPU - a.processCPU
}

// peakRSS runs unit n times, each from startPeak, and returns the peak RSS
// of each run. These runs are untimed, so returning pages to the operating
// system before each one never costs the timed replays page faults.
func peakRSS(n int, unit func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		if err := startPeak(); err != nil {
			return nil, err
		}
		if err := unit(); err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out = append(out, rss)
	}
	return out, nil
}
