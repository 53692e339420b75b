package benchgate

import (
	"fmt"
	"io"
	"math"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

// The chaos suite records the recovery overhead of the supervised TCP
// backend under deterministic worker-kill plans: CleanRounds is the number
// of committed barriers of the run, FaultyRounds the number of delivery
// attempts (committed barriers plus kill-forced replays), and OverheadPct
// the replay overhead. Kills are barrier-indexed and fire exactly once, so
// unlike socket-level resets (whose restart count depends on how far a
// write raced the collapse) every figure here is host-independent and gates
// exactly. The measurement also cross-checks that the killed run's results
// are bit-identical to an undisturbed one and that the supervisor executed
// exactly the scheduled kills — a divergence fails the measurement itself,
// mirroring the net suite's transcript checksum.

// chaosTransport boots a supervised in-process TCP clique (real sockets and
// frames, no subprocess spawn cost) under the given kill plan. The
// heartbeat is disabled so every restart is attributable to a kill.
func chaosTransport(kills ...transport.Kill) (*tcp.Transport, error) {
	var plan *transport.ChaosPlan
	if len(kills) > 0 {
		plan = &transport.ChaosPlan{Seed: 1, Kills: kills}
	}
	return tcp.New(tcp.Options{
		Procs:             netProcs,
		Supervise:         true,
		HeartbeatInterval: -1,
		BarrierTimeout:    30 * time.Second,
		Chaos:             plan,
		Stderr:            io.Discard,
	})
}

// chaosRecord folds one clean/killed run pair into a Workload entry after
// verifying the supervisor's ledger adds up.
func chaosRecord(out map[string]Workload, name, instance string, kills int,
	cleanCk, killedCk tcp.Checkpoint, rec tcp.RecoveryStats) error {
	if killedCk.Barriers != cleanCk.Barriers || killedCk.InDigest != cleanCk.InDigest {
		return fmt.Errorf("benchgate: chaos/%s: checkpoints diverge: clean %+v killed %+v",
			name, cleanCk, killedCk)
	}
	if rec.Kills != uint64(kills) || rec.ReplayedBarriers != uint64(kills) {
		return fmt.Errorf("benchgate: chaos/%s: scheduled %d kills, recovery shows %+v",
			name, kills, rec)
	}
	clean := int64(cleanCk.Barriers)
	attempts := clean + int64(rec.ReplayedBarriers)
	overhead := 0.0
	if clean > 0 {
		overhead = math.Round(float64(attempts-clean)/float64(clean)*1000) / 10
	}
	out[name] = Workload{
		Instance:     instance,
		CleanRounds:  clean,
		FaultyRounds: attempts,
		OverheadPct:  overhead,
	}
	return nil
}

// measureChaosEngine runs the net suite's engine workload through one
// supervised clique and returns the final checkpoint, recovery stats, and
// transcript checksum.
func measureChaosEngine(kills ...transport.Kill) (tcp.Checkpoint, tcp.RecoveryStats, uint64, error) {
	tr, err := chaosTransport(kills...)
	if err != nil {
		return tcp.Checkpoint{}, tcp.RecoveryStats{}, 0, err
	}
	defer tr.Close()
	e := cc.NewEngine(netN)
	e.SetTransport(tr)
	step, tx := netStep()
	if _, err := e.Run(step, netRounds+8); err != nil {
		return tcp.Checkpoint{}, tcp.RecoveryStats{}, 0, err
	}
	return tr.Checkpoint(), tr.Recovery(), tx.sum(), nil
}

// MeasureChaosWorkloads re-measures BENCH_chaos.json: the engine workload
// and a Laplacian solve through supervised TCP cliques with worker kills
// scheduled mid-run, recording the barrier-replay overhead of recovery.
func MeasureChaosWorkloads() (map[string]Workload, error) {
	out := map[string]Workload{}

	// Engine workload, clean supervised baseline.
	cleanCk, cleanRec, cleanSum, err := measureChaosEngine()
	if err != nil {
		return nil, fmt.Errorf("benchgate: chaos/engine clean: %w", err)
	}
	if cleanRec.Restarts != 0 {
		return nil, fmt.Errorf("benchgate: chaos/engine clean run restarted: %+v", cleanRec)
	}

	engineKills := [][]transport.Kill{
		{{Barrier: 3, Proc: 1}},
		{{Barrier: 1, Proc: 2}, {Barrier: 9, Proc: 0}},
	}
	for i, kills := range engineKills {
		name := fmt.Sprintf("engine-kill%d", len(kills))
		ck, rec, sum, err := measureChaosEngine(kills...)
		if err != nil {
			return nil, fmt.Errorf("benchgate: chaos/%s: %w", name, err)
		}
		if sum != cleanSum {
			return nil, fmt.Errorf("benchgate: chaos/%s: transcript checksum diverges: clean=%x killed=%x",
				name, cleanSum, sum)
		}
		instance := fmt.Sprintf("net workload n=%d fan=%d rounds=%d procs=%d, %d kill(s), plan %d",
			netN, netFan, netRounds, netProcs, len(kills), i+1)
		if err := chaosRecord(out, name, instance, len(kills), cleanCk, ck, rec); err != nil {
			return nil, err
		}
	}

	// Lapsolver: the batched solver packs a fault-free solve into a single
	// transport barrier, so a kill at barrier 0 replays the whole run.
	{
		g, err := graph.ConnectedGNM(48, 140, 11)
		if err != nil {
			return nil, fmt.Errorf("benchgate: chaos/lapsolver: %w", err)
		}
		b := linalg.NewVec(48)
		b[0], b[47] = 1, -1

		solve := func(kills ...transport.Kill) (*core.LaplacianResult, tcp.Checkpoint, tcp.RecoveryStats, error) {
			tr, err := chaosTransport(kills...)
			if err != nil {
				return nil, tcp.Checkpoint{}, tcp.RecoveryStats{}, err
			}
			defer tr.Close()
			res, err := core.SolveLaplacianWith(g.Clone(), b, 1e-8, core.RunOptions{Transport: tr})
			if err != nil {
				return nil, tcp.Checkpoint{}, tcp.RecoveryStats{}, err
			}
			return res, tr.Checkpoint(), tr.Recovery(), nil
		}
		clean, cleanCk, _, err := solve()
		if err != nil {
			return nil, fmt.Errorf("benchgate: chaos/lapsolver clean: %w", err)
		}
		killed, ck, rec, err := solve(transport.Kill{Barrier: 0, Proc: 3})
		if err != nil {
			return nil, fmt.Errorf("benchgate: chaos/lapsolver killed: %w", err)
		}
		for i := range clean.X {
			if clean.X[i] != killed.X[i] {
				return nil, fmt.Errorf("benchgate: chaos/lapsolver: potentials diverge at %d", i)
			}
		}
		if clean.Rounds != killed.Rounds {
			return nil, fmt.Errorf("benchgate: chaos/lapsolver: round ledgers diverge: %+v != %+v",
				clean.Rounds, killed.Rounds)
		}
		if err := chaosRecord(out, "lapsolver-kill1",
			"ConnectedGNM n=48 m=140 eps=1e-8, 1 kill at barrier 0", 1, cleanCk, ck, rec); err != nil {
			return nil, err
		}
	}

	return out, nil
}
