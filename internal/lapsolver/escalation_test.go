package lapsolver

import (
	"errors"
	"strings"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
	"lapcc/internal/trace"
)

// TestSolveBudgetExhaustion: a tiny round budget must abort the kappa loop
// with the typed error carrying partial stats, never run it unbounded.
func TestSolveBudgetExhaustion(t *testing.T) {
	g, err := graph.ConnectedGNM(48, 140, 17)
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	s, err := NewSolver(g, Options{Env: runenv.Env{Budget: rounds.NewBudget(1, 0)}, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	// Construction already spends rounds, so the 1-round budget is exhausted
	// before the first attempt.
	_, stats, err := s.Solve(meanFreeVec(48, 3), 1e-6)
	if !errors.Is(err, rounds.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *rounds.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T", err)
	}
	if be.Phase != "lapsolve-attempt-1" {
		t.Fatalf("exhausted at %q, want the first attempt boundary", be.Phase)
	}
	if stats.Attempts != 0 {
		t.Fatalf("ran %d attempts past an exhausted budget", stats.Attempts)
	}
}

// TestSolveBudgetAllowsCompletion: a generous budget must not perturb the
// result at all.
func TestSolveBudgetAllowsCompletion(t *testing.T) {
	g, err := graph.ConnectedGNM(32, 90, 19)
	if err != nil {
		t.Fatal(err)
	}
	b := meanFreeVec(32, 5)
	sFree, err := NewSolver(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sFree.Solve(b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	sBud, err := NewSolver(g, Options{Env: runenv.Env{Budget: rounds.NewBudget(1_000_000, 0)}, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sBud.Solve(b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("budgeted solve diverged at %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestSolveEscalatesToDenseFallback: a hopelessly loose internal tolerance
// floors every iterative attempt; the ladder must first tighten, then hand
// the solve to the exact dense path — and the answer must still certify
// against the reference solution.
func TestSolveEscalatesToDenseFallback(t *testing.T) {
	g, err := graph.ConnectedGNM(40, 120, 23)
	if err != nil {
		t.Fatal(err)
	}
	b := meanFreeVec(40, 7)
	led := rounds.New()
	tr := trace.New()
	s, err := NewSolver(g, Options{
		Env:         runenv.Env{Trace: tr},
		Ledger:      led,
		InternalTol: 1e-2, // sloppy inner solves: iterative attempts floor out
		MaxKappa:    16,   // small cap: reach the ladder quickly
	})
	if err != nil {
		t.Fatal(err)
	}
	x, stats, err := s.Solve(b, 1e-9)
	if err != nil {
		t.Fatalf("ladder failed to recover: %v", err)
	}
	if !stats.DenseFallback {
		t.Fatalf("expected the dense fallback, stats %+v", stats)
	}
	if stats.Escalations < 2 {
		t.Fatalf("escalations %d, want tighten + dense", stats.Escalations)
	}
	// The dense fallback must be exact: compare against the reference solve.
	want, err := linalg.LaplacianPseudoSolve(linalg.NewLaplacian(g).Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	diff := x.Clone()
	diff.AXPY(-1, want)
	if rel := diff.Norm2() / want.Norm2(); rel > 1e-10 {
		t.Fatalf("dense fallback inexact: relative error %v", rel)
	}
	// The gather cost of the fallback is charged, and the spans are visible.
	tags := map[string]bool{}
	for _, e := range led.Entries() {
		tags[e.Tag] = true
	}
	if !tags["lapsolve-dense-gather"] {
		t.Fatalf("dense gather not charged: %v", tags)
	}
	var sawTighten, sawDense bool
	for _, ph := range tr.Phases() {
		if strings.Contains(ph.Path, "escalate-tighten") {
			sawTighten = true
		}
		if strings.Contains(ph.Path, "escalate-dense") {
			sawDense = true
		}
	}
	if !sawTighten || !sawDense {
		t.Fatalf("escalation spans missing: tighten=%v dense=%v", sawTighten, sawDense)
	}
}

// TestSolveNoEscalationPinsHistoricalFailure: with the ladder disabled the
// kappa cap is a hard error, as it always was.
func TestSolveNoEscalationPinsHistoricalFailure(t *testing.T) {
	g, err := graph.ConnectedGNM(40, 120, 23)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(g, Options{
		InternalTol:  1e-2,
		MaxKappa:     16,
		NoEscalation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(meanFreeVec(40, 7), 1e-9); err == nil {
		t.Fatal("NoEscalation solve succeeded where the iterative path cannot")
	}
}
