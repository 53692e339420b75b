package mcmf

import (
	"errors"
	"strings"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

func budgetTestInstance() (*graph.DiGraph, []int64) {
	dg := graph.NewDi(4)
	dg.MustAddArc(0, 1, 1, 5)
	dg.MustAddArc(1, 2, 1, 5)
	dg.MustAddArc(0, 3, 1, 1)
	dg.MustAddArc(3, 2, 1, 1)
	return dg, []int64{1, 0, -1, 0}
}

// TestMinCostFlowBudgetExhaustion: a one-round budget must abort the CMSV
// IPM at an iteration boundary with the typed error.
func TestMinCostFlowBudgetExhaustion(t *testing.T) {
	dg, sigma := budgetTestInstance()
	led := rounds.New()
	_, err := MinCostFlow(dg, sigma, Options{
		Env:    runenv.Env{Budget: rounds.NewBudget(1, 0)},
		Ledger: led,
	})
	if !errors.Is(err, rounds.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *rounds.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T", err)
	}
	// Rounds are first charged inside iteration 0, so exhaustion surfaces
	// either at the session's solve boundary (same iteration) or at the
	// next IPM iteration boundary — both are metered checkpoints.
	if !strings.HasPrefix(be.Phase, "mcmf-iter-") && be.Phase != "potentials" {
		t.Fatalf("exhausted at %q, want an IPM or solve boundary", be.Phase)
	}
}

// TestMinCostFlowBudgetAllowsCompletion: a generous budget must not perturb
// the routing at all.
func TestMinCostFlowBudgetAllowsCompletion(t *testing.T) {
	dg, sigma := budgetTestInstance()
	want, err := MinCostFlow(dg, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	got, err := MinCostFlow(dg, sigma, Options{
		Env:    runenv.Env{Budget: rounds.NewBudget(100_000_000, 0)},
		Ledger: led,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Fatalf("budgeted cost %d != unbudgeted %d", got.Cost, want.Cost)
	}
	for i := range want.Flow {
		if got.Flow[i] != want.Flow[i] {
			t.Fatalf("budgeted flow diverged at arc %d", i)
		}
	}
}
