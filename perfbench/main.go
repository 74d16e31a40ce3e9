// Command perfbench is the HomeGuard benchmark. It runs one workload
// against the real serving stack, checks every output against an
// in-process reference, and prints its metrics by name with units; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (perfbench/run.sh builds homeguardd and this program first and
// passes -daemon and -work):
//
//	perfbench --workload warm_storm|cold_install|durable_storm|store_churn
//	          --seed N --seconds S --trace 0|1
//	          --daemon path/to/homeguardd --work scratch/dir
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that times each layer at its public boundary and prints the per-layer
// metrics and a table whose layers add up to the client-observed mean.
// The exit status is non-zero when any output is incorrect or any
// operation fails. README.md records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	daemon   string // homeguardd binary
	work     string // persistent scratch (traces)
	dir      string // this run's scratch, removed at exit
}

var workloads = map[string]func(*config) (*report, error){
	"warm_storm":    func(c *config) (*report, error) { return runStorm(c, stormSpec{}) },
	"cold_install":  func(c *config) (*report, error) { return runStorm(c, stormSpec{cold: true}) },
	"durable_storm": func(c *config) (*report, error) { return runStorm(c, stormSpec{durable: true}) },
	"store_churn":   runChurn,
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: warm_storm, cold_install, durable_storm or store_churn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs traced and prints the per-layer metrics")
	daemon := fs.String("daemon", "", "homeguardd binary for the storm workloads")
	work := fs.String("work", ".bench_build", "directory for scratch files and span traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	c := &config{
		workload: *workload, seed: *seed, duration: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, daemon: *daemon, work: *work,
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(c.work, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	c.dir = dir

	fmt.Printf("workload %s  seed %d  seconds %d  trace %d\n", c.workload, c.seed, *seconds, *trace)
	rep, err := wl(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	if err := rep.print(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// report collects one run's correctness verdict and the metrics of the
// set the run prints.
type report struct {
	set       []metricDef
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newReport(trace bool) *report {
	set := endToEnd
	if trace {
		set = perLayer
	}
	return &report{set: set, metrics: map[string]float64{}}
}

func (r *report) linef(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// problem records an incorrect output; the run then reports
// correct=false and exits non-zero.
func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", msg)
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the metric lines and, last, the JSON result. Every metric
// of the run's set must have been measured.
func (r *report) print() error {
	if err := finite(r.metrics); err != nil {
		return err
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	fmt.Printf("attempted %d  succeeded %d  failed %d  correct %v\n", r.attempted, r.attempted-r.failed, r.failed, out.Correct)
	for _, m := range r.set {
		v, ok := r.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Printf("  %-30s %14.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// median of a non-empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spanPath is where a traced run leaves its spans.
func (c *config) spanPath() (string, error) {
	dir := filepath.Join(c.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, c.workload+".spans"), nil
}
