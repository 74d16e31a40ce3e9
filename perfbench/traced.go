package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/extractcache"
	"homeguard/internal/fleet"
	"homeguard/internal/groovy"
	"homeguard/internal/obs"
	"homeguard/internal/rpc"
	"homeguard/internal/symexec"
	"homeguard/internal/wal"
)

// Span layers recorded by the traced run, each at a public boundary the
// program already exposes.
type layer uint8

const (
	layerClient layer = iota // rpc.Client call; one layer per op kind
	_
	_
	layerBackend // Backend call; one layer per op kind
	_
	_
	layerParse    // groovy.Parse
	layerExtract  // symexec.ExtractScript
	layerWALWrite // wal File.Write
	numLayers
)

var layerNames = [numLayers]string{
	"client.install", "client.reconfigure", "client.threats",
	"backend.install", "backend.reconfigure", "backend.threats",
	"groovy.parse", "symexec.extract", "wal.write",
}

// span is one timed call. Spans of one request share its id; id 0
// marks work not tied to one request.
type span struct {
	id         uint64
	layer      layer
	start, end int64 // ns since the tracer's epoch
}

// inflight is what a connection has outstanding: in a closed loop, at
// most one request.
type inflight struct {
	id     uint64
	home   string
	quoted []byte // `"home"`, as it appears in a JSON WAL record
	src    string // install source, "" otherwise
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	epoch time.Time
	seq   []uint64 // per connection; touched only by its own goroutine

	mu    sync.Mutex
	spans []span
	live  []inflight // by connection

	reqBytes, respBytes atomic.Int64
}

func newTracer(conns int) *tracer {
	return &tracer{epoch: time.Now(), seq: make([]uint64, conns), live: make([]inflight, conns)}
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.reqBytes.Store(0)
	t.respBytes.Store(0)
}

func (t *tracer) add(id uint64, l layer, start, end time.Time) {
	s := span{id: id, layer: l, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) begin(conn int, homeID string, req *api.InstallRequest) uint64 {
	t.seq[conn]++
	id := uint64(conn+1)<<40 | t.seq[conn]
	in := inflight{id: id, home: homeID, quoted: []byte(`"` + homeID + `"`)}
	if req != nil {
		in.src = req.Source
	}
	t.mu.Lock()
	t.live[conn] = in
	t.mu.Unlock()
	return id
}

func (t *tracer) end(conn int, id uint64, op opKind, start, stop time.Time) {
	t.add(id, layerClient+layer(op), start, stop)
	t.mu.Lock()
	t.live[conn] = inflight{}
	t.mu.Unlock()
}

// find returns the id of the outstanding request match accepts, or 0.
func (t *tracer) find(match func(*inflight) bool) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.live {
		if t.live[i].id != 0 && match(&t.live[i]) {
			return t.live[i].id
		}
	}
	return 0
}

// extract is symexec.Extract with the parse and the symbolic execution
// timed separately; the cache calls it only on a miss.
func (t *tracer) extract(src, appName string) (*symexec.Result, error) {
	id := t.find(func(in *inflight) bool { return in.src == src })
	t0 := time.Now()
	script, err := groovy.Parse(src)
	t1 := time.Now()
	t.add(id, layerParse, t0, t1)
	if err != nil {
		return nil, fmt.Errorf("symexec: %w", err)
	}
	res, err := symexec.ExtractScript(script, appName, symexec.Limits{})
	t.add(id, layerExtract, t1, time.Now())
	return res, err
}

// tracedBackend times the server-to-service call of each op.
type tracedBackend struct {
	rpc.Backend
	t *tracer
}

func (b tracedBackend) byHome(home string) uint64 {
	return b.t.find(func(in *inflight) bool { return in.home == home })
}

func (b tracedBackend) Install(ctx context.Context, req *api.InstallRequest) (*api.InstallResponse, *api.Error) {
	id, t0 := b.byHome(req.Home), time.Now()
	r, err := b.Backend.Install(ctx, req)
	b.t.add(id, layerBackend+layer(opInstall), t0, time.Now())
	return r, err
}

func (b tracedBackend) Reconfigure(ctx context.Context, req *api.ReconfigureRequest) (*api.ReconfigureResponse, *api.Error) {
	id, t0 := b.byHome(req.Home), time.Now()
	r, err := b.Backend.Reconfigure(ctx, req)
	b.t.add(id, layerBackend+layer(opReconfigure), t0, time.Now())
	return r, err
}

func (b tracedBackend) Threats(ctx context.Context, req *api.ThreatsRequest) (*api.ThreatsResponse, *api.Error) {
	id, t0 := b.byHome(req.Home), time.Now()
	r, err := b.Backend.Threats(ctx, req)
	b.t.add(id, layerBackend+layer(opThreats), t0, time.Now())
	return r, err
}

// tracedFS times WAL segment writes.
type tracedFS struct {
	wal.FS
	t *tracer
}

func (f tracedFS) Create(path string) (wal.File, error) { return f.wrap(f.FS.Create(path)) }
func (f tracedFS) Append(path string) (wal.File, error) { return f.wrap(f.FS.Append(path)) }

func (f tracedFS) wrap(file wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, t: f.t}, nil
}

type tracedFile struct {
	wal.File
	t *tracer
}

// Write attributes a record to the request whose home its JSON payload
// names.
func (f tracedFile) Write(p []byte) (int, error) {
	id := f.t.find(func(in *inflight) bool { return bytes.Contains(p, in.quoted) })
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.t.add(id, layerWALWrite, t0, time.Now())
	return n, err
}

// countingConn counts the bytes a client writes and reads.
type countingConn struct {
	net.Conn
	t *tracer
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.respBytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.reqBytes.Add(int64(n))
	return n, err
}

// stack is the daemon's serving stack hosted in the benchmark process,
// built with the constructors homeguardd calls. With a tracer, the traced
// extractor, WAL filesystem, backend and client connections are spliced
// in at their public seams; without one it is the daemon's stack as is.
type stack struct {
	obs  *obs.Observer
	t    *tracer
	srv  *rpc.Server
	lis  net.Listener
	wlog *wal.Log
	done chan error
}

func newStack(t *tracer, walDir string) (*stack, error) {
	o := obs.NewObserver()
	opts := fleet.Options{Shards: 16, Obs: o}
	var fs wal.FS // nil: the real filesystem
	if t != nil {
		opts.Cache = extractcache.NewWithExtractor(t.extract)
		opts.Cache.SetLimit(fleet.DefaultExtractEntries)
		fs = tracedFS{FS: wal.OSFS{}, t: t}
	}
	f := fleet.New(opts)
	st := &stack{obs: o, t: t, done: make(chan error, 1)}
	if walDir != "" {
		l, err := wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncOff, Registry: o.Registry, FS: fs})
		if err != nil {
			return nil, fmt.Errorf("wal open: %w", err)
		}
		f.AttachWAL(l)
		st.wlog = l
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.lis = lis
	var b rpc.Backend = rpc.NewService(f, rpc.ServiceOptions{})
	if t != nil {
		b = tracedBackend{Backend: b, t: t}
	}
	st.srv = rpc.NewServer(b, rpc.ServerOptions{Obs: o})
	go func() { st.done <- st.srv.Serve(lis) }()
	return st, nil
}

func (st *stack) dial() (*rpc.Client, error) {
	conn, err := net.Dial("tcp", st.lis.Addr().String())
	if err != nil {
		return nil, err
	}
	if st.t == nil {
		return rpc.NewClient(conn)
	}
	return rpc.NewClient(countingConn{Conn: conn, t: st.t})
}

func (st *stack) close() error {
	var err error
	if st.srv != nil {
		err = st.srv.Close()
		if serr := <-st.done; err == nil {
			err = serr
		}
	}
	if st.wlog != nil {
		if werr := st.wlog.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// layerTotals sums span time per layer.
func (t *tracer) layerTotals() (total [numLayers]time.Duration, count [numLayers]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		total[s.layer] += time.Duration(s.end - s.start)
		count[s.layer]++
	}
	return total, count
}

// writeSpans writes every span as "id layer start_ns end_ns" lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%x %s %d %d\n", s.id, layerNames[s.layer], s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
