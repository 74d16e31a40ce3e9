package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"homeguard/internal/rpc"
)

// runStorm runs one storm workload: against homeguardd child processes
// untraced, or against the same stack hosted in this process traced.
func runStorm(c *config, spec stormSpec) (*report, error) {
	s, err := newStorm(spec, c.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("closed loop: %d connections, mix install=%d/reconfigure=%d/threats=%d, %d apps per home\n",
		s.conns, weightInstall, weightReconf, weightThreats, appsPerHome)
	if c.trace {
		return runStormTraced(c, s)
	}
	if c.daemon == "" {
		return nil, fmt.Errorf("--daemon is required")
	}
	rep := newReport(false)

	// Boot a fresh daemon stormSetups times (each with a fresh WAL dir);
	// the last one serves the measured window.
	var d *daemon
	defer func() {
		if d != nil {
			_ = d.stop() // error path only; the success path checks stop
		}
	}()
	var setups []float64
	for k := 0; k < stormSetups; k++ {
		if d != nil {
			err := d.stop()
			d = nil
			if err != nil {
				return nil, fmt.Errorf("stop boot %d: %w", k-1, err)
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(c.daemon, c.dir, k, spec.durable); err != nil {
			return nil, err
		}
		if !spec.cold {
			cl, err := rpc.DialTimeout(d.rpcAddr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			err = s.warmUp(cl, k)
			cl.Close()
			if err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	instance := stormSetups - 1

	heap0, err := d.liveHeap()
	if err != nil {
		return nil, err
	}
	before, err := scrapeHTTP(d.httpAddr)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	res, err := s.run(func() (*rpc.Client, error) { return rpc.DialTimeout(d.rpcAddr, 5*time.Second) }, instance, c.duration, nil)
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	after, err := scrapeHTTP(d.httpAddr)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(strconv.Itoa(d.pid()))
	if err != nil {
		return nil, err
	}
	heap1, err := d.liveHeap()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		rep.problem("homeguardd did not shut down cleanly: %v\n%s", err, d.logTail())
	}
	d = nil

	layers := s.check(rep, res, before, after)
	installs := res.lat[opInstall]
	p50, _ := installs.percentile(0.50)
	p90, ok := installs.percentile(0.90)
	if !ok {
		return nil, fmt.Errorf("only %d installs completed: too few for a p90 with %d samples above it", len(installs), minTail)
	}
	done := float64(res.completed())
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["ops_per_s"] = done / res.elapsed.Seconds()
	rep.metrics["op_p50_ms"] = ms(p50)
	rep.metrics["op_p90_ms"] = ms(p90)
	rep.metrics["heap_kb_per_app"] = float64(int64(heap1)-int64(heap0)) / 1024 / float64(len(installs))
	rep.metrics["cpu_us_per_op"] = us(cpu1-cpu0) / done
	rep.linef("homeguardd peak RSS (VmHWM) %.1f MB", rss)
	what := "boot + warm-up"
	if spec.cold {
		what = "boot"
	}
	rep.linef("setup (%s) per boot: %v s", what, setups)
	rep.linef("scraped layers (not part of the result; see --trace 1):")
	for _, m := range perLayer {
		if v, ok := layers[m.name]; ok {
			rep.linef("  %-30s %14.6g %s", m.name, v, m.unit)
		}
	}
	return rep, nil
}

// check prints the per-op latency table, verifies every reply against
// the in-process reference and the scraped counters against the ops
// acked, and returns the scrape-derived layer metrics.
func (s *storm) check(rep *report, res *loadResult, before, after scrape) map[string]float64 {
	rep.attempted, rep.failed = res.attempted, res.failed
	for k := opKind(0); k < numOps; k++ {
		rep.linef("%-12s %s", opNames[k], res.lat[k].describe())
	}
	rep.linef("%-12s n=%-7d in %.3fs", "total", res.completed(), res.elapsed.Seconds())
	for _, e := range res.errs {
		rep.problem("operation failed: %s", e)
	}
	if bad, msgs := s.verify(res); bad > 0 {
		rep.failed += bad
		for _, m := range msgs {
			rep.problem("reply differs from reference: %s", m)
		}
	}
	layers := scrapeLayers(before, after, res.completed())
	if n := layers["solver.limit_hits"]; n != 0 {
		rep.problem("%v solver calls hit the node budget", n)
	}
	if installs := after["homeguard_installs_total"] - before["homeguard_installs_total"]; installs != float64(len(res.lat[opInstall])) {
		rep.problem("daemon counted %v installs, clients saw %d acked", installs, len(res.lat[opInstall]))
	}
	if s.spec.durable {
		if appends := after["homeguard_wal_appends_total"] - before["homeguard_wal_appends_total"]; appends != float64(res.mutations()) {
			rep.problem("WAL appended %v records for %d acked mutations", appends, res.mutations())
		}
	}
	return layers
}

// inProcess runs one measured window against a fresh in-process stack,
// traced when t is set, and returns the outcome and the registry
// scraped around the window.
func (s *storm) inProcess(c *config, t *tracer, instance int) (res *loadResult, before, after scrape, err error) {
	walDir := ""
	if s.spec.durable {
		walDir = filepath.Join(c.dir, "wal-inproc-"+strconv.Itoa(instance))
	}
	st, err := newStack(t, walDir)
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if cerr := st.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close serving stack: %w", cerr)
		}
	}()
	if !s.spec.cold {
		cl, err := st.dial()
		if err != nil {
			return nil, nil, nil, err
		}
		err = s.warmUp(cl, instance)
		cl.Close()
		if err != nil {
			return nil, nil, nil, err
		}
	}
	if before, err = scrapeRegistry(st.obs.Registry); err != nil {
		return nil, nil, nil, err
	}
	if res, err = s.run(st.dial, instance, c.duration, t); err != nil {
		return nil, nil, nil, err
	}
	if after, err = scrapeRegistry(st.obs.Registry); err != nil {
		return nil, nil, nil, err
	}
	return res, before, after, nil
}

// runStormTraced hosts the stack in this process, first untraced and
// then traced, so the two throughputs show the tracing overhead, and
// reports the per-layer metrics of the traced window.
func runStormTraced(c *config, s *storm) (*report, error) {
	rep := newReport(true)
	plain, _, _, err := s.inProcess(c, nil, 0)
	if err != nil {
		return nil, err
	}
	t := newTracer(s.conns)
	res, before, after, err := s.inProcess(c, t, 1)
	if err != nil {
		return nil, err
	}
	path, err := c.spanPath()
	if err != nil {
		return nil, err
	}
	if err := t.writeSpans(path); err != nil {
		return nil, err
	}
	rep.linef("spans written to %s", path)

	rep.linef("untraced in-process window:")
	for k := opKind(0); k < numOps; k++ {
		rep.linef("%-12s %s", opNames[k], plain.lat[k].describe())
	}
	for _, e := range plain.errs {
		rep.problem("operation failed: %s", e)
	}
	bad, msgs := s.verify(plain)
	for _, m := range msgs {
		rep.problem("reply differs from reference: %s", m)
	}
	rep.linef("traced window:")
	for name, v := range s.check(rep, res, before, after) {
		rep.metrics[name] = v
	}
	rep.attempted += plain.attempted
	rep.failed += plain.failed + bad
	tot, cnt := t.layerTotals()
	ops := float64(res.attempted) // one client span per attempted op
	perOp := func(l layer) float64 { return us(tot[l]) / ops }
	var client, backend float64
	for k := opKind(0); k < numOps; k++ {
		client += perOp(layerClient + layer(k))
		backend += perOp(layerBackend + layer(k))
		rep.metrics["fleet.backend_us."+opNames[k]] = us(tot[layerBackend+layer(k)]) / max(float64(cnt[layerBackend+layer(k)]), 1)
	}
	// The layers on the request path, in order; the residual is the
	// backend time none of them covers.
	type part struct {
		name string
		v    float64
	}
	parts := []part{
		{"rpc.edge_us", client - backend},
		{"groovy.parse_us", perOp(layerParse)},
		{"symexec.extract_us", perOp(layerExtract)},
		{"wal.write_us", perOp(layerWALWrite)},
	}
	residual := backend
	for _, p := range parts[1:] {
		residual -= p.v
	}
	parts = append(parts, part{"residual_us", residual})

	rep.metrics["rpc.client_us"] = client
	rep.metrics["rpc.req_bytes"] = float64(t.reqBytes.Load()) / ops
	rep.metrics["rpc.resp_bytes"] = float64(t.respBytes.Load()) / ops
	rep.metrics["traced.ops_per_s"] = float64(res.completed()) / res.elapsed.Seconds()
	rep.metrics["inproc.ops_per_s"] = float64(plain.completed()) / plain.elapsed.Seconds()
	for _, m := range []string{"audit.pairs_per_rev", "audit.filter_ms_per_rev", "audit.solve_ms_per_rev",
		"audit.solver_calls_per_rev", "audit.findings_delta_per_rev"} {
		rep.metrics[m] = 0 // no store auditor on the storms
	}

	rep.linef("per-layer mean time per op (µs), %d ops:", res.attempted)
	rep.linef("  %-34s %10.2f", "client-observed (rpc.client_us)", client)
	var sum float64
	for _, p := range parts {
		rep.metrics[p.name] = p.v
		sum += p.v
		rep.linef("    %-32s %10.2f  %5.1f%%", p.name, p.v, 100*p.v/client)
	}
	rep.linef("  %-34s %10.2f", "sum of layers", sum)
	rep.linef("  backend by op (µs per call): install %.2f  reconfigure %.2f  threats %.2f",
		rep.metrics["fleet.backend_us.install"], rep.metrics["fleet.backend_us.reconfigure"], rep.metrics["fleet.backend_us.threats"])
	return rep, nil
}
