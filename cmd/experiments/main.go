// Command experiments regenerates every experiment table in EXPERIMENTS.md
// (E1-E14), reproducing the quantitative claims of the paper's theorems as
// scaling measurements plus the simulator's own instrumentation profile
// (E10). See DESIGN.md section 5 for the experiment index.
//
//	go run ./cmd/experiments            # all experiments
//	go run ./cmd/experiments -run E3,E5 # a subset
//	go run ./cmd/experiments -quick     # smaller sweeps
//	go run ./cmd/experiments -trace out.json  # traced stack profile only
//	go run ./cmd/experiments -faults seed=1,drop=0.01 -run E2
//	go run ./cmd/experiments -debug-addr localhost:6060 -run E5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/experiments"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
	"lapcc/internal/trace"
)

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiment ids (E1..E14) or 'all'")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	trOut := flag.String("trace", "", "run one traced solve per algorithm and write a Chrome trace_event file")
	trEv := flag.String("trace-events", "", "like -trace but writing the deterministic JSONL event stream")
	faults := flag.String("faults", "", "deterministic fault plan applied to every solver run, e.g. 'seed=1,drop=0.01' (see cc.ParseFaultPlan)")
	budget := flag.String("budget", "", "per-solver-run budget: 'rounds=N,wall=DUR' or bare round count 'N'")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (e.g. localhost:6060) for the duration of the run")
	debugHold := flag.Duration("debug-hold", 0, "keep the -debug-addr server up this long after the run (for scraping short runs)")
	workers := flag.Int("workers", 0, "worker count for the numerical core (0 = GOMAXPROCS, 1 = sequential); results are bit-identical at any setting")
	flag.Parse()

	if err := run(*runFlag, *quick, *trOut, *trEv, *faults, *budget, *debugAddr, *debugHold, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(runFlag string, quick bool, trOut, trEv, faults, budget, debugAddr string, debugHold time.Duration, workers int) error {
	cfg := runenv.Env{Workers: workers}
	if faults != "" {
		plan, err := cc.ParseFaultPlan(faults)
		if err != nil {
			return err
		}
		cfg.Faults = plan
		fmt.Printf("faults: %s\n", plan)
	}
	if debugAddr != "" {
		reg := metrics.NewRegistry()
		cc.SetMetrics(reg)
		linalg.SetMetrics(reg)
		srv, err := metrics.StartDebugServer(debugAddr, reg)
		if err != nil {
			return err
		}
		fmt.Printf("debug: serving /metrics and /debug/pprof on http://%s\n", srv.Addr())
		defer func() {
			if debugHold > 0 {
				fmt.Printf("debug: holding %s for scrapes of http://%s\n", debugHold, srv.Addr())
				time.Sleep(debugHold)
			}
			srv.Close()
			cc.SetMetrics(nil)
			linalg.SetMetrics(nil)
		}()
		cfg.Metrics = reg
	}
	b, err := rounds.ParseBudget(budget)
	if err != nil {
		return err
	}
	cfg.Budget = b
	if err := experiments.Configure(cfg); err != nil {
		return err
	}

	if trOut != "" || trEv != "" {
		tr := trace.New()
		if err := experiments.TraceProfile(os.Stdout, quick, tr); err != nil {
			return fmt.Errorf("trace profile failed: %w", err)
		}
		if err := tr.WriteFiles(trOut, trEv); err != nil {
			return fmt.Errorf("trace export failed: %w", err)
		}
		for _, p := range []string{trOut, trEv} {
			if p != "" {
				fmt.Printf("trace: wrote %s\n", p)
			}
		}
		return nil
	}

	want := map[string]bool{}
	if runFlag == "all" {
		for _, e := range experiments.All() {
			want[e.ID] = true
		}
	} else {
		for _, id := range strings.Split(runFlag, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	for _, e := range experiments.All() {
		if !want[e.ID] {
			continue
		}
		fmt.Printf("\n================================================================\n%s\n================================================================\n", e.Title)
		if err := e.Run(os.Stdout, quick); err != nil {
			return fmt.Errorf("%s failed: %w", e.ID, err)
		}
	}
	return nil
}
