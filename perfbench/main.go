// Command perfbench is the repository benchmark. It drives the lapccd
// daemon (internal/serve) and the core.Do library surface from one process
// on three workloads, verifies every answer, and prints one JSON line of
// metrics: the end-to-end metrics with --trace 0, and the per-layer metrics
// of a separate instrumented run with --trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// setupReps is how many times a timed run brings the program side up; the
// reported setup_s is their median.
const setupReps = 5

// minOps is the fewest ops a timed phase runs, whatever --seconds says: the
// tail rule needs more than tailMinBeyond samples and rounds_per_op needs
// the workload's exact prefix.
const minOps = 2*tailMinBeyond + 1

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nodeBin  string
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: solve-hot, serve-cold or flow-ipm")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an instrumented run")
	fs.StringVar(&cfg.nodeBin, "node-bin", "", "lapccnode worker binary for the traced run's transport probe (empty: in-process workers over loopback sockets)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	var rep *report
	if cfg.trace {
		rep, err = runTraced(cfg, w, stderr)
	} else {
		rep, err = runTimed(cfg, w, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// phase is the record of one timed phase.
type phase struct {
	lat        []float64 // wall ms per op, in op order
	cpu        []float64 // process CPU ms per op, in op order
	rounds     []int64   // rounds per op, in op order
	attempted  int
	ok         int
	allocBytes uint64 // TotalAlloc growth inside the op spans
	liveHeap   uint64 // HeapAlloc after forced GCs at the end
}

// runPhase runs ops 0, 1, ... back to back (one closed-loop client) until
// seconds have passed and at least minOps ops are done. Only the op call
// is timed; request building, verification and the per-op hooks run
// outside the span. after, if non-nil, sees each op's latency and result.
func runPhase(w workload, seconds float64, after func(lat time.Duration, res opResult), stderr io.Writer) (*phase, error) {
	p := &phase{}
	need := minOps
	if e := w.exactOps(); e > need {
		need = e
	}
	var ms runtime.MemStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < need || time.Now().Before(deadline); i++ {
		call, err := w.prepare(i)
		if err != nil {
			return nil, fmt.Errorf("op %d: inputs: %w", i, err)
		}
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		cpu0 := processCPU()
		t0 := time.Now()
		res, err := call()
		lat := time.Since(t0)
		cpu := processCPU() - cpu0
		runtime.ReadMemStats(&ms)
		p.allocBytes += ms.TotalAlloc - alloc0
		p.attempted++
		p.lat = append(p.lat, float64(lat.Nanoseconds())/1e6)
		p.cpu = append(p.cpu, float64(cpu.Nanoseconds())/1e6)
		p.rounds = append(p.rounds, res.rounds)
		if err == nil {
			err = res.check()
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: op %d failed: %v\n", i, err)
		} else {
			p.ok++
		}
		if after != nil {
			after(lat, res)
		}
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, leaving only what is really retained.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.liveHeap = ms.HeapAlloc
	return p, nil
}

// startTimed brings the program side up and returns how long it took, in
// wall seconds and in process CPU seconds.
func startTimed(w workload, in *instruments) (wall, cpu float64, err error) {
	t0, c0 := time.Now(), processCPU()
	if err := w.start(in); err != nil {
		w.stop()
		return 0, 0, fmt.Errorf("set-up: %w", err)
	}
	return time.Since(t0).Seconds(), (processCPU() - c0).Seconds(), nil
}

// runTimed is the end-to-end run: set up setupReps times (keeping the last
// program side), run the timed phase with every instrument off, and report
// the end-to-end metrics. Every timing is process CPU time: on the shared
// guests this benchmark runs on, the hypervisor steals up to half of the
// vCPUs' time in phases lasting minutes, which inflates wall time but is
// not charged as CPU time (README.md, NOISE.md). Wall figures go to stderr.
func runTimed(cfg config, w workload, stderr io.Writer) (*report, error) {
	before := probeHost()
	runtime.GC()
	var setupsWall, setupsCPU []float64
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			w.stop()
		}
		wall, cpu, err := startTimed(w, nil)
		if err != nil {
			return nil, err
		}
		setupsWall, setupsCPU = append(setupsWall, wall), append(setupsCPU, cpu)
	}
	p, err := runPhase(w, cfg.seconds, nil, stderr)
	w.stop()
	if err != nil {
		return nil, err
	}
	after := probeHost()
	tailMs, pct, err := tail(p.cpu, tailMinBeyond)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d ops=%d op_cpu_tail_ms is p%.1f (%d samples beyond it); wall: op p50 %.1f ms, set-up %.3f s; host triad %.2f/%.2f GB/s, spin %.1f/%.1f ms, spin steal %.2f/%.2f before/after\n",
		cfg.workload, cfg.seed, p.attempted, pct, tailMinBeyond, median(p.lat), median(setupsWall),
		before.triad, after.triad, before.spin, after.spin, before.steal, after.steal)
	exact := p.rounds[:w.exactOps()]
	var roundsSum int64
	for _, r := range exact {
		roundsSum += r
	}
	rep := &report{
		Correct:   p.ok == p.attempted,
		Attempted: p.attempted,
		Failed:    p.attempted - p.ok,
		Metrics: map[string]metric{
			"op_cpu_p50_ms":   {median(p.cpu), "ms"},
			"op_cpu_tail_ms":  {tailMs, "ms"},
			"ops_per_cpu_s":   {float64(p.ok) / (sum(p.cpu) / 1e3), "1/s"},
			"setup_s":         {median(setupsCPU), "s"},
			"rounds_per_op":   {float64(roundsSum) / float64(len(exact)), "rounds"},
			"alloc_mb_per_op": {float64(p.allocBytes) / float64(p.attempted) / 1e6, "MB"},
			"live_heap_mb":    {float64(p.liveHeap) / 1e6, "MB"},
			"ok_frac":         {float64(p.ok) / float64(p.attempted), "fraction"},
		},
	}
	return rep, nil
}
