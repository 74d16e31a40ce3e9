package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"homeguard/internal/audit"
	"homeguard/internal/detect"
	"homeguard/internal/experiments"
)

// store_churn shape: a 2000-app sparse synthetic store, changed by
// 20-app (1%) revisions applied back to back from one goroutine. Each
// picked app toggles between two generations that share its name but
// bind other devices and trigger states, so every revision really moves
// footprints.
const (
	churnApps   = 2000
	churnPool   = 160
	churnBatch  = 20
	churnSetups = 3 // store builds per run; setup_s is their median
)

// liveHeap collects garbage and returns the bytes of heap still
// allocated.
func liveHeap() uint64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

func runChurn(c *config) (*report, error) {
	rep := newReport(c.trace)
	base := experiments.SyntheticSparseApps(churnApps, churnPool, c.seed)
	variant := experiments.SyntheticSparseApps(churnApps, churnPool, c.seed+1_000_003)
	fmt.Printf("in-process audit.Auditor: %d apps, device pool %d, %d-app revisions\n", churnApps, churnPool, churnBatch)

	heap0 := liveHeap()
	var aud *audit.Auditor
	var setups []float64
	for k := 0; k < churnSetups; k++ {
		aud = nil
		runtime.GC() // each build starts from the same heap
		a := audit.NewAuditor(audit.AuditorOptions{})
		t0 := time.Now()
		rev, err := a.Apply(audit.Batch{Upserts: base})
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("store build: %w", err)
		}
		if rev.Apps != churnApps || len(rev.Errors) != 0 {
			return nil, fmt.Errorf("store build: %d apps, errors %v", rev.Apps, rev.Errors)
		}
		aud = a
	}
	runtime.GC()

	rng := rand.New(rand.NewSource(c.seed))
	onVariant := make([]bool, churnApps)
	var (
		lat                                   samples
		pairs, calls, indexed, pruned, limits int
		delta                                 int
		filterNS, solveNS                     int64
	)
	cpu0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for stop := start.Add(c.duration); time.Now().Before(stop); {
		batch := audit.Batch{Upserts: make([]audit.App, 0, churnBatch)}
		for _, k := range rng.Perm(churnApps)[:churnBatch] {
			onVariant[k] = !onVariant[k]
			if onVariant[k] {
				batch.Upserts = append(batch.Upserts, variant[k])
			} else {
				batch.Upserts = append(batch.Upserts, base[k])
			}
		}
		t0 := time.Now()
		rev, err := aud.Apply(batch)
		d := time.Since(t0)
		rep.attempted++
		if err == nil && (len(rev.Errors) != 0 || rev.Apps != churnApps) {
			err = fmt.Errorf("errors %v, %d apps", rev.Errors, rev.Apps)
		}
		if err != nil {
			// The store no longer matches the model; stop here.
			rep.failed++
			rep.problem("revision %d: %v", rep.attempted, err)
			break
		}
		lat = append(lat, d)
		pairs += rev.Pairs
		calls += rev.Stats.SolverCalls
		indexed += rev.Stats.PairsIndexed
		pruned += rev.Stats.PairsPruned
		limits += rev.Stats.SearchLimitHits
		delta += len(rev.Added) + len(rev.Resolved)
		for _, ns := range rev.Stats.FilterNS {
			filterNS += ns
		}
		for _, ns := range rev.Stats.SolveNS {
			solveNS += ns
		}
	}
	elapsed := time.Since(start)
	cpu1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS("self")
	if err != nil {
		return nil, err
	}
	heap1 := liveHeap()
	lat.sort()
	rep.linef("%-12s %s", "revision", lat.describe())
	rep.linef("store build per run: %v s", setups)
	rep.linef("benchmark process peak RSS (VmHWM) %.1f MB", rss)

	// The final findings must be byte-identical to a from-scratch audit
	// of the final store (store order never changes: every upsert is an
	// update in place).
	final := make([]audit.App, churnApps)
	for i := range final {
		final[i] = base[i]
		if onVariant[i] {
			final[i] = variant[i]
		}
	}
	full := audit.Run(final, audit.Options{IndexDensityCutoff: 1.1})
	for i, err := range full.Errors {
		if err != nil {
			return nil, fmt.Errorf("reference audit: app %d: %w", i, err)
		}
	}
	want, err := detect.MarshalThreats(full.Threats())
	if err != nil {
		return nil, err
	}
	got, err := detect.MarshalThreats(aud.Threats())
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		rep.problem("final findings (%d bytes) differ from a from-scratch audit (%d bytes)", len(got), len(want))
	}
	if limits != 0 {
		rep.problem("%d solver calls hit the node budget", limits)
	}

	n := float64(len(lat))
	if c.trace {
		for _, m := range perLayer {
			rep.metrics[m.name] = 0 // no RPC edge, fleet, cache or WAL here
		}
		// Revisions always record their stats, so nothing is added when
		// tracing: both throughputs are this run's.
		rep.metrics["traced.ops_per_s"] = n / elapsed.Seconds()
		rep.metrics["inproc.ops_per_s"] = rep.metrics["traced.ops_per_s"]
		rep.metrics["detect.pairs_indexed_per_op"] = float64(indexed) / n
		rep.metrics["detect.pairs_pruned_per_op"] = float64(pruned) / n
		rep.metrics["solver.calls_per_op"] = float64(calls) / n
		rep.metrics["solver.limit_hits"] = float64(limits)
		rep.metrics["audit.pairs_per_rev"] = float64(pairs) / n
		rep.metrics["audit.filter_ms_per_rev"] = float64(filterNS) / 1e6 / n
		rep.metrics["audit.solve_ms_per_rev"] = float64(solveNS) / 1e6 / n
		rep.metrics["audit.solver_calls_per_rev"] = float64(calls) / n
		rep.metrics["audit.findings_delta_per_rev"] = float64(delta) / n
		rev := ms(lat.mean())
		rep.linef("per-layer mean time per revision (ms):")
		rep.linef("  %-34s %10.3f", "revision (client-observed)", rev)
		rep.linef("    %-32s %10.3f", "audit.filter_ms_per_rev", rep.metrics["audit.filter_ms_per_rev"])
		rep.linef("    %-32s %10.3f", "audit.solve_ms_per_rev", rep.metrics["audit.solve_ms_per_rev"])
		rep.linef("    %-32s %10.3f", "residual (index, compile, delta)", rev-rep.metrics["audit.filter_ms_per_rev"]-rep.metrics["audit.solve_ms_per_rev"])
		return rep, nil
	}
	p50, _ := lat.percentile(0.50)
	p90, ok := lat.percentile(0.90)
	if !ok {
		return nil, fmt.Errorf("only %d revisions in %v: too few for a p90 with %d samples above it", len(lat), elapsed, minTail)
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["ops_per_s"] = n / elapsed.Seconds()
	rep.metrics["op_p50_ms"] = ms(p50)
	rep.metrics["op_p90_ms"] = ms(p90)
	rep.metrics["cpu_us_per_op"] = us(cpu1-cpu0) / n
	rep.metrics["heap_kb_per_app"] = float64(int64(heap1)-int64(heap0)) / 1024 / churnApps
	return rep, nil
}
