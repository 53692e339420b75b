package experiments

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"lapcc/internal/cc"
	"lapcc/internal/graph"
	"lapcc/internal/mcmf"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

// --- E14 ------------------------------------------------------------------

// e14LiveMetrics exercises the observability path end to end: it starts the
// same debug HTTP server the -debug-addr flag starts, runs the min-cost
// flow solver under FaultPlans of increasing drop rate, and after each run
// scrapes /metrics over real HTTP — the way an operator (or Prometheus)
// would. The table shows the reliable-delivery counters read back from the
// scrape; their growth with the drop rate is the live-counter view of the
// same retransmission cost E13 measures from the ledger totals.
func e14LiveMetrics(w io.Writer, quick bool) error {
	drops := []float64{0, 0.005, 0.01, 0.02, 0.05}
	if quick {
		drops = []float64{0, 0.01, 0.05}
	}

	reg := metrics.NewRegistry()
	prev := cc.MetricsRegistry()
	cc.SetMetrics(reg) // route/reliable/fault counters come from the cc layer
	defer cc.SetMetrics(prev)
	srv, err := metrics.StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		return fmt.Errorf("e14: debug server: %w", err)
	}
	defer srv.Close()
	fmt.Fprintf(w, "debug server on http://%s; one /metrics scrape per run\n\n", srv.Addr())

	// The BENCH_faults.json min-cost workload: 6-vertex unit-capacity
	// demand instance, nearly all of whose measured rounds are routing —
	// exactly the rounds the reliable layer has to protect.
	instance := func() (*graph.DiGraph, []int64) {
		dg := graph.NewDi(6)
		dg.MustAddArc(0, 2, 1, 3)
		dg.MustAddArc(0, 3, 1, 1)
		dg.MustAddArc(1, 3, 1, 2)
		dg.MustAddArc(1, 4, 1, 4)
		dg.MustAddArc(3, 5, 1, 1)
		dg.MustAddArc(2, 5, 1, 2)
		dg.MustAddArc(4, 5, 1, 1)
		return dg, []int64{1, 1, 0, 0, 0, -2}
	}

	// Counters are cumulative across the sweep (one registry, like one
	// long-lived process): per-run figures are deltas between scrapes.
	tracked := []string{
		"lapcc_reliable_waves_total",
		"lapcc_reliable_retransmitted_packets_total",
		`lapcc_engine_faults_total{type="dropped"}`,
	}
	last := make(map[string]float64, len(tracked))

	fmt.Fprintf(w, "%8s %8s %10s %14s %10s\n", "drop", "rounds", "waves", "retransmitted", "dropped")
	var cleanRounds int64
	for _, d := range drops {
		var plan *cc.FaultPlan
		if d > 0 {
			plan = &cc.FaultPlan{Seed: 53, Drop: d}
		}
		dg, sigma := instance()
		led := rounds.New()
		if _, err := mcmf.MinCostFlow(dg, sigma, mcmf.Options{Env: runenv.Env{Faults: plan, Metrics: reg}, Ledger: led}); err != nil {
			return fmt.Errorf("e14: drop=%g: %w", d, err)
		}
		if d == 0 {
			cleanRounds = led.Total()
		}
		scraped, err := scrapeMetrics("http://" + srv.Addr() + "/metrics")
		if err != nil {
			return fmt.Errorf("e14: scrape: %w", err)
		}
		delta := make(map[string]float64, len(tracked))
		for _, name := range tracked {
			v, ok := scraped[name]
			if !ok {
				return fmt.Errorf("e14: scrape missing %s", name)
			}
			delta[name] = v - last[name]
			last[name] = v
		}
		fmt.Fprintf(w, "%7.1f%% %8d %10.0f %14.0f %10.0f\n",
			100*d, led.Total(),
			delta["lapcc_reliable_waves_total"],
			delta["lapcc_reliable_retransmitted_packets_total"],
			delta[`lapcc_engine_faults_total{type="dropped"}`])
	}
	fmt.Fprintf(w, "\nclean run: %d rounds; every extra round in the sweep is retransmission\n", cleanRounds)
	fmt.Fprintln(w, "claim shape: the scraped retransmit-wave and dropped-packet counters grow")
	fmt.Fprintln(w, "with the drop rate, tracking the E13 ledger overheads — the live /metrics")
	fmt.Fprintln(w, "view and the round accounting agree on what fault tolerance costs.")
	return nil
}

// scrapeMetrics GETs a Prometheus text exposition and returns every sample
// line as "name" or `name{labels}` -> value.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
