package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
	"homeguard/internal/detect"
	"homeguard/internal/rpc"
	"homeguard/internal/symexec"
)

// Storm shape: every connection is one user who installs appsPerHome
// corpus apps into a fresh home, one at a time, interleaving a
// reconfigure or a threat-log read per the weights, then moves on to the
// next home. The loop is closed: a user sends the next request only
// after the reply to the previous one.
const (
	appsPerHome   = 12
	weightInstall = 8
	weightReconf  = 1
	weightThreats = 1
	rpcDeadline   = 5 * time.Second
	stormSetups   = 11 // daemon boots per run; setup_s is their median
)

type opKind uint8

const (
	opInstall opKind = iota
	opReconfigure
	opThreats
	numOps
)

var opNames = [numOps]string{"install", "reconfigure", "threats"}

// stormSpec is what distinguishes the three storm workloads.
type stormSpec struct {
	cold    bool // every home's apps are renamed, so no cache entry matches
	durable bool // -wal-dir with -fsync off
}

// opRec is one completed operation, kept for the correctness check.
type opRec struct {
	home   int32 // home sequence number within the connection
	kind   opKind
	app    int8  // index into the storm's app list
	got    int32 // threats returned
	failed bool
}

// userResult is one connection's outcome.
type userResult struct {
	lat       [numOps]samples
	log       []opRec
	attempted int64
	failed    int64
	errs      []string // the first few error messages
	end       time.Time
}

// loadResult is one storm's raw outcome.
type loadResult struct {
	lat       [numOps]samples
	logs      [][]opRec // per connection
	attempted int64
	failed    int64
	errs      []string // the first few error messages
	elapsed   time.Duration
}

// storm generates a workload's requests from the seed: the op mix, the
// reconfigure targets and (cold) the rename tags all come from it.
type storm struct {
	spec  stormSpec
	seed  int64
	apps  []corpus.App
	ref   *reference
	conns int
}

func newStorm(spec stormSpec, seed int64) (*storm, error) {
	apps := corpus.All()[:appsPerHome]
	for _, a := range apps {
		if strings.Count(a.Source, definitionOf(a.Name)) != 1 {
			return nil, fmt.Errorf("corpus app %s: cannot locate its definition(name: …) to rename", a.Name)
		}
	}
	ref, err := newReference(apps)
	if err != nil {
		return nil, err
	}
	return &storm{spec: spec, seed: seed, apps: apps, ref: ref, conns: runtime.NumCPU()}, nil
}

func definitionOf(name string) string { return `definition(name: "` + name + `"` }

// homeID namespaces homes by seed, daemon instance and connection, so no
// two runs or boots ever share a home.
func (s *storm) homeID(instance, conn int, home int32) string {
	return fmt.Sprintf("s%d-d%d-c%d-h%d", s.seed, instance, conn, home)
}

// renameTag derives a home's rename tag from the seed and the home.
func (s *storm) renameTag(conn int, home int32) string {
	x := uint64(s.seed)*0x9e3779b97f4a7c15 ^ uint64(conn)<<32 ^ uint64(home)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return fmt.Sprintf("%012x", x&0xffffffffffff)
}

// appName is the name app i carries in a home.
func (s *storm) appName(i int, conn int, home int32) string {
	if !s.spec.cold {
		return s.apps[i].Name
	}
	return s.apps[i].Name + "_" + s.renameTag(conn, home)
}

// installRequest builds the request for app i in a home: the corpus
// name when warm, the renamed source when cold.
func (s *storm) installRequest(homeID string, i int, conn int, home int32) *api.InstallRequest {
	if !s.spec.cold {
		return &api.InstallRequest{Home: homeID, Corpus: s.apps[i].Name}
	}
	src := strings.Replace(s.apps[i].Source, definitionOf(s.apps[i].Name), definitionOf(s.appName(i, conn, home)), 1)
	return &api.InstallRequest{Home: homeID, Source: src}
}

// warmUp installs every storm app into one home, so extraction and
// every pair verdict are cached before the measured window.
func (s *storm) warmUp(c *rpc.Client, instance int) error {
	for i := range s.apps {
		ctx, cancel := context.WithTimeout(context.Background(), rpcDeadline)
		_, err := c.Install(ctx, &api.InstallRequest{Home: s.homeID(instance, -1, 0), Corpus: s.apps[i].Name})
		cancel()
		if err != nil {
			return fmt.Errorf("warm-up install %s: %w", s.apps[i].Name, err)
		}
	}
	return nil
}

// run drives s.conns closed-loop users for d against the clients dial
// returns. instance namespaces the home IDs; t, when set, traces every
// request at the client boundary.
func (s *storm) run(dial func() (*rpc.Client, error), instance int, d time.Duration, t *tracer) (*loadResult, error) {
	clients := make([]*rpc.Client, s.conns)
	for i := range clients {
		c, err := dial()
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return nil, err
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	if t != nil {
		t.reset() // drop set-up and warm-up spans
	}
	users := make([]userResult, s.conns)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for c := range clients {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			s.user(clients[conn], conn, instance, stop, t, &users[conn])
		}(c)
	}
	wg.Wait()
	res := &loadResult{}
	for _, u := range users {
		for k := range u.lat {
			res.lat[k] = append(res.lat[k], u.lat[k]...)
		}
		res.logs = append(res.logs, u.log)
		res.attempted += u.attempted
		res.failed += u.failed
		res.errs = append(res.errs, u.errs...)
		res.elapsed = max(res.elapsed, u.end.Sub(start))
	}
	for k := range res.lat {
		res.lat[k].sort()
	}
	return res, nil
}

// user is one closed-loop connection.
func (s *storm) user(c *rpc.Client, conn, instance int, stop time.Time, t *tracer, out *userResult) {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(conn)))
	var home int32
	installed := 0
	homeID := s.homeID(instance, conn, home)
	for time.Now().Before(stop) {
		op := opInstall
		switch n := rng.Intn(weightInstall + weightReconf + weightThreats); {
		case installed == 0 || n < weightInstall:
		case n < weightInstall+weightReconf:
			op = opReconfigure
		default:
			op = opThreats
		}
		if op == opInstall && installed == len(s.apps) {
			home++
			installed = 0
			homeID = s.homeID(instance, conn, home)
		}
		rec := opRec{home: home, kind: op}
		var req *api.InstallRequest
		switch op {
		case opInstall:
			rec.app = int8(installed)
			req = s.installRequest(homeID, installed, conn, home)
		case opReconfigure:
			rec.app = int8(rng.Intn(installed))
		}
		var id uint64
		if t != nil {
			id = t.begin(conn, homeID, req)
		}
		ctx, cancel := context.WithTimeout(context.Background(), rpcDeadline)
		t0 := time.Now()
		var err error
		switch op {
		case opInstall:
			var r *api.InstallResponse
			if r, err = c.Install(ctx, req); err == nil {
				rec.got = int32(len(r.Threats))
			}
		case opReconfigure:
			var r *api.ReconfigureResponse
			if r, err = c.Reconfigure(ctx, &api.ReconfigureRequest{Home: homeID, App: s.appName(int(rec.app), conn, home)}); err == nil {
				rec.got = int32(len(r.Threats))
			}
		case opThreats:
			var r *api.ThreatsResponse
			if r, err = c.Threats(ctx, &api.ThreatsRequest{Home: homeID}); err == nil {
				rec.got = int32(len(r.Threats))
			}
		}
		t1 := time.Now()
		cancel()
		if t != nil {
			t.end(conn, id, op, t0, t1)
		}
		out.attempted++
		if err != nil {
			rec.failed = true
			out.failed++
			if len(out.errs) < 5 {
				out.errs = append(out.errs, fmt.Sprintf("%s %s: %v", opNames[op], homeID, err))
			}
			// Start over in a fresh home rather than retrying a request
			// the daemon may keep refusing.
			home++
			installed = 0
			homeID = s.homeID(instance, conn, home)
		} else {
			out.lat[op] = append(out.lat[op], t1.Sub(t0))
			if op == opInstall {
				installed++
			}
		}
		out.log = append(out.log, rec)
	}
	out.end = time.Now()
}

// reference holds the threat counts a bare detect.Detector — no caches,
// fleet, service or transport — reports for a home that installs the
// storm's apps, unrenamed, in order: install[k] for installing app k
// after apps 0..k-1, reconf[k][j] for reconfiguring app j (j < k) with
// its default configuration after k installs. A default reconfigure
// leaves a home's detection state as it was, so these cover every
// sequence the storm sends.
type reference struct {
	install [appsPerHome]int
	reconf  [appsPerHome + 1][appsPerHome]int
}

func newReference(apps []corpus.App) (*reference, error) {
	res := make([]*symexec.Result, len(apps))
	for i, a := range apps {
		r, err := symexec.Extract(a.Source, "")
		if err != nil {
			return nil, fmt.Errorf("reference extraction of %s: %w", a.Name, err)
		}
		res[i] = r
	}
	home := func(k int) *detect.Detector {
		d := detect.New(detect.Options{})
		for i := 0; i < k; i++ {
			d.Install(detect.NewInstalledApp(res[i], nil))
		}
		return d
	}
	ref := &reference{}
	for k := range apps {
		ref.install[k] = len(home(k).Install(detect.NewInstalledApp(res[k], nil)))
	}
	for k := 1; k <= len(apps); k++ {
		for j := 0; j < k; j++ {
			ts, err := home(k).Reconfigure(apps[j].Name, nil)
			if err != nil {
				return nil, fmt.Errorf("reference reconfigure of %s: %w", apps[j].Name, err)
			}
			ref.reconf[k][j] = len(ts)
		}
	}
	return ref, nil
}

// verify walks every home's operations and compares each reply's threat
// count with the reference: an install's and a reconfigure's own
// threats, and a read's threat-log length (every threat the home's
// installs and reconfigures reported). It returns the number of
// mismatching ops and a description of the first few.
func (s *storm) verify(res *loadResult) (int64, []string) {
	var bad int64
	var msgs []string
	for conn, log := range res.logs {
		home, installed, logLen := int32(-1), 0, 0
		for _, r := range log {
			if r.home != home {
				home, installed, logLen = r.home, 0, 0
			}
			if r.failed {
				continue
			}
			var want int
			switch r.kind {
			case opInstall:
				want = s.ref.install[installed]
				installed++
				logLen += want
			case opReconfigure:
				want = s.ref.reconf[installed][r.app]
				logLen += want
			case opThreats:
				want = logLen
			}
			if int32(want) != r.got {
				bad++
				if len(msgs) < 5 {
					msgs = append(msgs, fmt.Sprintf("%s of app %d in home %d of connection %d: %d threats, reference %d",
						opNames[r.kind], r.app, r.home, conn, r.got, want))
				}
			}
		}
	}
	return bad, msgs
}

// mutations counts the acked installs and reconfigures, each of which
// must have appended one WAL record.
func (res *loadResult) mutations() int64 {
	return int64(len(res.lat[opInstall]) + len(res.lat[opReconfigure]))
}

func (res *loadResult) completed() int64 { return res.attempted - res.failed }

// daemon is one homeguardd child process.
type daemon struct {
	cmd       *exec.Cmd
	httpAddr  string
	rpcAddr   string
	pprofAddr string
	logPath   string
	done      chan struct{} // closed once the process has exited; waitErr is set then
	waitErr   error
	logDone   chan struct{} // closed once the daemon's log is fully copied
}

// freeAddrs reserves n distinct loopback ports by binding them all at
// once and then releasing them.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// bootAttempts bounds the boots tried when a port reserved for the
// daemon is taken by another socket before the daemon binds it.
const bootAttempts = 3

// startDaemon boots homeguardd and waits until both edges are up: the
// RPC edge answers a Ping and the HTTP edge its health probe. A boot
// that loses a port race is retried on fresh ports.
func startDaemon(bin, dir string, instance int, durable bool) (*daemon, error) {
	for attempt := 1; ; attempt++ {
		d, err := bootDaemon(bin, dir, fmt.Sprintf("%d-%d", instance, attempt), durable)
		if err == nil || attempt == bootAttempts || !strings.Contains(err.Error(), "address already in use") {
			return d, err
		}
	}
}

// bootDaemon is one boot attempt of startDaemon.
func bootDaemon(bin, dir, name string, durable bool) (*daemon, error) {
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	httpAddr, rpcAddr, pprofAddr := addrs[0], addrs[1], addrs[2]
	args := []string{"-addr", httpAddr, "-rpc-addr", rpcAddr, "-pprof-addr", pprofAddr}
	if durable {
		args = append(args, "-wal-dir", filepath.Join(dir, "wal-"+name), "-fsync", "off")
	}
	logPath := filepath.Join(dir, "homeguardd-"+name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	// The daemon logs "rpc edge listening" once its RPC listener is bound,
	// which it does only after recovery. Watching its log for that line
	// times the boot without polling.
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, pw
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	pw.Close() // the child holds its own descriptor
	if err != nil {
		pr.Close()
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, httpAddr: httpAddr, rpcAddr: rpcAddr, pprofAddr: pprofAddr, logPath: logPath,
		done: make(chan struct{}), logDone: make(chan struct{})}
	listening := make(chan struct{})
	go func() {
		defer close(d.logDone)
		defer logf.Close()
		defer pr.Close()
		signal := listening
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if signal != nil && strings.Contains(sc.Text(), "rpc edge listening") {
				close(signal)
				signal = nil
			}
		}
		_, _ = io.Copy(logf, pr) // drain an over-long line so the daemon never blocks on its log
	}()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()

	select {
	case <-listening:
	case <-d.done:
		<-d.logDone
		return nil, fmt.Errorf("homeguardd exited during boot (%v); log:\n%s", d.waitErr, d.logTail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("homeguardd not ready after 30s; log:\n%s", d.logTail())
	}
	c, err := rpc.DialTimeout(rpcAddr, time.Second)
	if err != nil {
		d.stop()
		return nil, err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.Ping(ctx); err != nil {
		d.stop()
		return nil, fmt.Errorf("homeguardd ping: %w; log:\n%s", err, d.logTail())
	}
	if err := d.waitHTTP(httpAddr); err != nil {
		d.stop()
		return nil, fmt.Errorf("homeguardd health probe: %v; log:\n%s", err, d.logTail())
	}
	return d, nil
}

// waitHTTP polls the daemon's /healthz until it answers 200. The daemon
// binds its HTTP edge in the background, possibly after the RPC edge is
// up, and exits if that bind fails.
func (d *daemon) waitHTTP(addr string) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = errors.New(resp.Status)
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-d.done:
			return fmt.Errorf("homeguardd exited (%v)", d.waitErr)
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// liveHeap forces a garbage collection in the daemon (through its pprof
// listener) and returns the bytes of heap still allocated after it.
func (d *daemon) liveHeap() (uint64, error) {
	resp, err := http.Get("http://" + d.pprofAddr + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, fmt.Errorf("heap profile: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("heap profile: %w", err)
	}
	return 0, fmt.Errorf("heap profile: no HeapAlloc line")
}

// stop sends SIGTERM (graceful drain plus, with a WAL, a final
// checkpoint), escalates to SIGKILL after 20s, and waits for the exit.
// Death by that SIGTERM counts as stopped: a daemon signalled between
// binding its listeners and installing its signal handler dies that way.
// Calling stop again is harmless.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		<-d.logDone
		return errors.New("homeguardd ignored SIGTERM for 20s")
	}
	<-d.logDone
	var ee *exec.ExitError
	if errors.As(d.waitErr, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return d.waitErr
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath) // diagnostics only
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}
