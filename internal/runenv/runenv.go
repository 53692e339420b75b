// Package runenv holds the environment of a run: the six cross-cutting knobs
// — tracer, fault plan, delivery backend, budget, metrics registry and
// worker count — that decide how a stage runs but never what it computes.
// In the congested-clique model none of them is an algorithmic choice, so
// they are declared once, here, and every solver's Options embeds Env
// instead of declaring its own copies. A stage hands its whole Env to the
// stages it calls; the few places that deliberately run a sub-stage under a
// narrower environment do so through a named Env method (Uncharged,
// Unbudgeted), so every such drop can be found by searching for those
// methods.
//
// Which stages ignore which knob:
//
//   - Workers is ignored by the stages without a numerical core: euler,
//     flowround, ccalgo.Rings and the randomized sparsifier.
//   - Faults and Transport are ignored by the stages that execute no
//     network primitive: the randomized sparsifier (it charges its rounds)
//     and the electrical session's internal path (zero-round internal CG).
//     A Full-mode electrical session hands them to its Laplacian solver.
//   - Budget is ignored by ccalgo.Rings (its caller, euler, checks the
//     budget at every contraction iteration) and the randomized sparsifier,
//     and withheld from the Laplacian solver's sparsifier builds (see
//     Unbudgeted).
//   - Trace and Metrics are ignored by ccalgo.Rings; its rounds reach the
//     caller's ledger, which the caller's tracer and registry mirror.
package runenv

import (
	"lapcc/internal/cc"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
)

// Env carries the cross-cutting robustness and observability knobs of a
// run. The zero value is a plain run: no tracing, no faults, no budget, no
// metrics, in-process delivery, GOMAXPROCS workers.
type Env struct {
	// Trace, if non-nil, receives hierarchical span and cost events.
	Trace *trace.Tracer
	// Faults, if non-nil, subjects every network primitive of the run to
	// the given deterministic fault plan, with delivery restored by the
	// reliable retransmission layer (see internal/cc). Answers are
	// bit-identical to a fault-free run; only the round cost grows.
	Faults *cc.FaultPlan
	// Transport, if non-nil, physically carries every network primitive of
	// the run through the given delivery backend — the in-process wire
	// codec (transport.Mem) or the multi-process TCP clique (transport/tcp)
	// — instead of the default in-process delivery. Answers, charged
	// ledgers, and fault statistics are bit-identical across backends; the
	// caller owns the transport's lifecycle (Close).
	Transport cc.Transport
	// Budget, if non-nil, bounds the run's rounds and/or wall clock.
	// Exhaustion aborts at the next phase boundary with an error unwrapping
	// to rounds.ErrBudgetExceeded that carries the partial round stats.
	Budget *rounds.Budget
	// Metrics, if non-nil, receives live counters and histograms from every
	// stage of the run, plus a mirror of the ledger's cost stream — the
	// registry the debug HTTP endpoint exposes (see internal/metrics). A
	// nil registry records nothing and costs nothing.
	Metrics *metrics.Registry
	// Workers sets the worker count of the numerical core for the run —
	// Laplacian matvecs, CG/Chebyshev vector kernels, per-part sparsifier
	// builds (0 = GOMAXPROCS, 1 = sequential, restoring the exact
	// single-threaded code path). Parallelism is internal computation and
	// free in the congested-clique model; answers and round accounting are
	// bit-identical at any worker count.
	Workers int
}

// Uncharged is the environment of an internal measurement that is not part
// of the run's round cost, such as the sparsifier the flow IPMs build once
// to calibrate the charged Theorem 1.1 formula. It keeps Metrics and
// Workers and drops the rest: the measurement has no ledger, so a tracer
// would record spans without cost; it is not delivered on the network, so a
// fault plan or transport would add traffic the run never pays for; and a
// budget would meter or abort the run on work outside its accounting.
func (e Env) Uncharged() Env {
	return Env{Metrics: e.Metrics, Workers: e.Workers}
}

// Unbudgeted is the environment without its budget. The Laplacian solver
// builds its sparsifier under it: the solver's budget bounds each Solve at
// its kappa attempts, while the sparsifier is built once and amortized
// across every solve and reweight of the solver's lifetime. A budget handed
// to the build would stay with the sparsifier chain after the call that
// brought it — a pooled daemon session swaps only the solver's budget per
// request (lapsolver.Solver.SetBudget), so the first request's budget, with
// its baseline and wall clock, would go on metering every later rebuild.
func (e Env) Unbudgeted() Env {
	e.Budget = nil
	return e
}

// RouteBatched delivers one batched routing step under the environment:
// through the reliable retransmission layer when a fault plan is set, and
// over the delivery backend when one is. Delivery is bit-identical either
// way; only the rounds recorded in led differ.
func (e Env) RouteBatched(n int, pkts []cc.Packet, led *rounds.Ledger, tag string) ([][]cc.Packet, error) {
	if e.Faults != nil {
		out, _, err := cc.ReliableRouteBatchedVia(e.Transport, n, pkts, led, tag, e.Faults)
		return out, err
	}
	out, _, err := cc.RouteBatchedVia(e.Transport, n, pkts, led, tag)
	return out, err
}

// BroadcastAll runs one all-to-all broadcast of a word per node under the
// environment, with the same fault and backend handling as RouteBatched.
func (e Env) BroadcastAll(n int, values []int64, led *rounds.Ledger, tag string) ([]int64, error) {
	if e.Faults != nil {
		out, _, err := cc.ReliableBroadcastAllVia(e.Transport, n, values, led, tag, e.Faults)
		return out, err
	}
	return cc.BroadcastAllVia(e.Transport, n, values, led, tag)
}
