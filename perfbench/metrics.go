package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"homeguard/internal/obs"
)

// metricDef is one reported metric: its name and unit as BENCHMARK.json
// declares them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, printed on every
// untraced run of every workload. On the storms "op" is the install (the
// verdict a user waits for in the install dialog); on store_churn it is
// one applied store revision.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"heap_kb_per_app", "KB"},
}

// perLayer are the traced run's metrics. A layer a workload bypasses
// reads 0 there (no WAL on warm_storm, no RPC edge on store_churn).
var perLayer = []metricDef{
	// Traced spans at the public boundaries, µs per completed op.
	{"rpc.client_us", "us"},
	{"rpc.edge_us", "us"},
	{"fleet.backend_us.install", "us"},
	{"fleet.backend_us.reconfigure", "us"},
	{"fleet.backend_us.threats", "us"},
	{"groovy.parse_us", "us"},
	{"symexec.extract_us", "us"},
	{"wal.write_us", "us"},
	{"residual_us", "us"},
	{"rpc.req_bytes", "B"},
	{"rpc.resp_bytes", "B"},
	{"traced.ops_per_s", "1/s"},
	{"inproc.ops_per_s", "1/s"}, // the same in-process stack untraced
	// Scrape-derived (homeguard_* counters diffed across the run).
	{"rpc.server_us", "us"},
	{"fleet.install_us", "us"},
	{"extractcache.hit_ratio", "ratio"},
	{"pairverdict.hit_ratio", "ratio"},
	{"detect.pairs_indexed_per_op", "count"},
	{"detect.pairs_pruned_per_op", "count"},
	{"solver.calls_per_op", "count"},
	{"solver.limit_hits", "count"},
	{"wal.bytes_per_op", "B"},
	// Store auditor, from audit.Revision.
	{"audit.pairs_per_rev", "count"},
	{"audit.filter_ms_per_rev", "ms"},
	{"audit.solve_ms_per_rev", "ms"},
	{"audit.solver_calls_per_rev", "count"},
	{"audit.findings_delta_per_rev", "count"},
}

// scrape is one Prometheus exposition with every sample of a name summed
// over its labels (histogram _bucket series are never read).
type scrape map[string]float64

func parseScrape(r io.Reader) (scrape, error) {
	ss, err := obs.ParseExposition(r)
	if err != nil {
		return nil, err
	}
	out := scrape{}
	for _, s := range ss {
		out[s.Name] += s.Value
	}
	return out, nil
}

// scrapeHTTP reads a daemon's /metrics?format=prometheus.
func scrapeHTTP(addr string) (scrape, error) {
	resp, err := http.Get("http://" + addr + "/metrics?format=prometheus")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	return parseScrape(resp.Body)
}

// scrapeRegistry reads an in-process registry through the same
// exposition path.
func scrapeRegistry(reg *obs.Registry) (scrape, error) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseScrape(&b)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrapeLayers derives the scrape-based per-layer metrics from two
// expositions taken around the measured window.
func scrapeLayers(before, after scrape, ops int64) map[string]float64 {
	d := func(name string) float64 { return after[name] - before[name] }
	n := float64(ops)
	// Service.Install extracts before handing the source to the fleet,
	// which looks it up again, so every install makes two cache lookups
	// and a cold one counts a miss and a hit. The ratio is therefore taken
	// per install: the share of installs that ran no extraction.
	installs := d("homeguard_installs_total")
	extractHit := 0.0
	if installs > 0 {
		extractHit = 1 - d("homeguard_extract_cache_misses_total")/installs
	}
	return map[string]float64{
		"rpc.server_us":               1e6 * ratio(d("homeguard_rpc_latency_seconds_sum"), d("homeguard_rpc_latency_seconds_count")),
		"fleet.install_us":            1e6 * ratio(d("homeguard_install_duration_seconds_sum"), d("homeguard_install_duration_seconds_count")),
		"extractcache.hit_ratio":      extractHit,
		"pairverdict.hit_ratio":       ratio(d("homeguard_verdict_cache_hits_total"), d("homeguard_verdict_cache_lookups_total")),
		"detect.pairs_indexed_per_op": ratio(d("homeguard_detect_pairs_indexed_total"), n),
		"detect.pairs_pruned_per_op":  ratio(d("homeguard_detect_pairs_pruned_total"), n),
		"solver.calls_per_op":         ratio(d("homeguard_solver_calls_total"), n),
		"solver.limit_hits":           d("homeguard_solver_limit_hits_total"),
		"wal.bytes_per_op":            ratio(d("homeguard_wal_bytes_total"), n),
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every mainstream Linux architecture).
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, starting at field 3 (state).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	var ticks int64
	for _, s := range f[11:13] { // utime, stime (fields 14 and 15)
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// selfCPU returns this process's user+system CPU time at µs resolution.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
}

// finite rejects values JSON cannot carry.
func finite(m map[string]float64) error {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}
