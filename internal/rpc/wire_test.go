package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/fleet"
)

// closeWithin fails the test if srv.Close does not return within d: a
// connection handler parked forever keeps Close waiting.
func closeWithin(t *testing.T, srv *Server, d time.Duration) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(d):
		t.Fatalf("Server.Close did not return within %v", d)
	}
}

// TestExpiredStreamDoesNotWedgeConn pins the fix for a stream whose
// handler returned on its deadline: the read loop used to keep feeding
// its inbox, and once the 16-slot buffer filled it blocked for good,
// so every later RPC on the connection hung and Server.Close never
// returned.
func TestExpiredStreamDoesNotWedgeConn(t *testing.T) {
	svc := NewService(fleet.New(fleet.Options{Shards: 4}), ServiceOptions{})
	srv := NewServer(svc, ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	st, err := client.StreamThreats(sctx)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 40; i++ {
		if err := st.Send(&api.ThreatsRequest{Home: "h1"}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	pctx, pcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer pcancel()
	if _, err := client.Ping(pctx); err != nil {
		t.Fatalf("ping after the expired stream: %v", err)
	}
	closeWithin(t, srv, 5*time.Second)
}

// TestWorkerPoolBurst sends a burst of concurrent RPCs and checks the
// pool parks at most its cap of idle workers afterwards, and that it
// kept some (workers are reused, not discarded). Run with -race.
func TestWorkerPoolBurst(t *testing.T) {
	_, client := startEdge(t, ServiceOptions{}, ServerOptions{})
	ctx := context.Background()
	const burst = 64
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				_, err = client.Install(ctx, &api.InstallRequest{Home: fmt.Sprintf("b%d", i), Corpus: "ComfortTV"})
			} else {
				_, err = client.Ping(ctx)
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for workers.idle.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	idle := workers.idle.Load()
	if idle > workers.maxIdle {
		t.Errorf("%d idle workers after the burst, cap %d", idle, workers.maxIdle)
	}
	if idle == 0 {
		t.Error("no idle worker after the burst: finished workers were not kept")
	}
}

// pipeConn serves b as the only connection of a fresh Server over
// net.Pipe and returns the client end; cleanup closes both.
func pipeConn(t *testing.T, b Backend) net.Conn {
	t.Helper()
	srv := NewServer(b, ServerOptions{})
	client, server := net.Pipe()
	go srv.Serve(newOneConnListener(server))
	t.Cleanup(func() {
		client.Close()
		closeWithin(t, srv, 5*time.Second)
	})
	return client
}

// TestMalformedReqHeader pins INVALID_ARGUMENT for a REQ payload too
// short for its method and deadline fields.
func TestMalformedReqHeader(t *testing.T) {
	conn := pipeConn(t, fakeBackend{})
	if _, err := io.WriteString(conn, Preface); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i, payload := range [][]byte{
		nil,
		{5, 'I', 'n'},
		{4, 'P', 'i', 'n', 'g', 0, 0, 0},
	} {
		id := uint64(i + 1)
		if _, err := conn.Write(appendFrame(nil, frameReq, id, payload)); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("payload %v: no reply frame: %v", payload, err)
		}
		err = decodeStatus(f.payload, nil)
		var aerr *api.Error
		if f.typ != frameRes || f.id != id || !errors.As(err, &aerr) || aerr.Code != api.CodeInvalidArgument {
			t.Errorf("payload %v: reply type %d id %d err %v, want RES %d INVALID_ARGUMENT", payload, f.typ, f.id, err, id)
		}
	}
}

// TestVersion1ClientRefused checks a peer speaking the previous
// protocol version is dropped at the preface, so its call fails
// UNAVAILABLE instead of being misread.
func TestVersion1ClientRefused(t *testing.T) {
	conn := pipeConn(t, fakeBackend{})
	c := &Client{conn: conn, fw: &frameWriter{w: bufio.NewWriter(conn)}, calls: map[uint64]chan frame{}}
	go c.readLoop()
	if _, err := io.WriteString(conn, "HGRPC/1\x00"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := c.Ping(ctx)
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeUnavailable {
		t.Fatalf("version-1 peer's call: %v, want UNAVAILABLE", err)
	}
}

// hugeAppsBackend answers Apps with a reply larger than a frame.
type hugeAppsBackend struct{ fakeBackend }

func (hugeAppsBackend) Apps(_ context.Context, home string) (*api.AppsResponse, *api.Error) {
	apps := make([]string, maxFrame/64+1)
	for i := range apps {
		apps[i] = strings.Repeat("a", 64)
	}
	return &api.AppsResponse{HomeID: home, Apps: apps}, nil
}

// TestOversizedReplyIsAnError checks a reply too large for one frame
// reaches the client as RESOURCE_EXHAUSTED instead of never arriving.
func TestOversizedReplyIsAnError(t *testing.T) {
	conn := pipeConn(t, hugeAppsBackend{})
	c, err := NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = c.Apps(ctx, "h1")
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeResourceExhausted {
		t.Fatalf("oversized Apps reply: %v, want RESOURCE_EXHAUSTED", err)
	}
	if _, err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after the oversized reply: %v", err)
	}
}

// ---------- fuzzing ----------

// fakeBackend answers every method at once with a fixed value, so the
// fuzzer spends its time in frame decoding and dispatch.
type fakeBackend struct{}

func (fakeBackend) Install(context.Context, *api.InstallRequest) (*api.InstallResponse, *api.Error) {
	return &api.InstallResponse{HomeID: "h", App: "a"}, nil
}
func (fakeBackend) InstallBatch(context.Context, *api.InstallBatchRequest) (*api.InstallBatchResponse, *api.Error) {
	return &api.InstallBatchResponse{HomeID: "h"}, nil
}
func (fakeBackend) Reconfigure(context.Context, *api.ReconfigureRequest) (*api.ReconfigureResponse, *api.Error) {
	return &api.ReconfigureResponse{HomeID: "h"}, nil
}
func (fakeBackend) Threats(_ context.Context, req *api.ThreatsRequest) (*api.ThreatsResponse, *api.Error) {
	if req.Home == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "home is required")
	}
	return &api.ThreatsResponse{HomeID: req.Home}, nil
}
func (fakeBackend) Accept(context.Context, *api.AcceptRequest) (*api.AcceptResponse, *api.Error) {
	return &api.AcceptResponse{HomeID: "h"}, nil
}
func (fakeBackend) Apps(_ context.Context, home string) (*api.AppsResponse, *api.Error) {
	return &api.AppsResponse{HomeID: home}, nil
}
func (fakeBackend) SubmitApps(context.Context, *api.SubmitAppsRequest) (*api.SubmitAppsResponse, *api.Error) {
	return nil, api.Errorf(api.CodeFailedPrecondition, "no store")
}
func (fakeBackend) Findings(context.Context, *api.FindingsRequest) (*api.FindingsResponse, *api.Error) {
	return nil, api.Errorf(api.CodeFailedPrecondition, "no store")
}
func (fakeBackend) Ping(context.Context) (*api.PingResponse, *api.Error) {
	return &api.PingResponse{Node: "fake"}, nil
}
func (fakeBackend) MigrateHome(context.Context, *api.MigrateHomeRequest) (*api.MigrateHomeResponse, *api.Error) {
	return nil, api.Errorf(api.CodeNotFound, "no home")
}
func (fakeBackend) AdoptHome(context.Context, *api.AdoptHomeRequest) (*api.AdoptHomeResponse, *api.Error) {
	return nil, api.Errorf(api.CodeNotFound, "no home")
}
func (fakeBackend) BreakerState(string) string { return "" }

// appendFrame appends one encoded frame to b.
func appendFrame(b []byte, typ byte, id uint64, payload []byte) []byte {
	b = append(b, typ)
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// reqPayload builds a REQ payload.
func reqPayload(method string, deadlineMs int64, body string) []byte {
	b, err := appendReqHeader(nil, method, deadlineMs)
	if err != nil {
		panic(err)
	}
	return append(b, body...)
}

// oneConnListener hands out a single connection, then blocks until
// closed.
type oneConnListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newOneConnListener(c net.Conn) *oneConnListener {
	l := &oneConnListener{conns: make(chan net.Conn, 1), closed: make(chan struct{})}
	l.conns <- c
	return l
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *oneConnListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *oneConnListener) Addr() net.Addr { return &net.TCPAddr{} }

// serveBytes feeds in to a Server over net.Pipe as one client
// connection, ends the input, and returns what the server wrote
// before the connection closed. It fails the test if the server's
// Close does not return.
func serveBytes(t testing.TB, in []byte) []byte {
	srv := NewServer(fakeBackend{}, ServerOptions{})
	client, server := net.Pipe()
	lis := newOneConnListener(server)
	served := make(chan struct{})
	go func() {
		srv.Serve(lis)
		close(served)
	}()
	var out bytes.Buffer
	drained := make(chan struct{})
	go func() {
		io.Copy(&out, client)
		close(drained)
	}()
	client.Write(in) // an error means the server dropped the connection early
	client.Close()
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("Server.Close did not return after the input ended")
	}
	<-served
	<-drained
	return out.Bytes()
}

// FuzzServerConn feeds the preface plus arbitrary bytes to a Server as
// one connection. Whatever the bytes, the server must not panic, its
// connection handler must return once the input ends, and Close must
// return.
func FuzzServerConn(f *testing.F) {
	install := appendFrame(nil, frameReq, 1, reqPayload("Install", 1000, `{"home":"h1","corpus":"ComfortTV"}`))
	f.Add(install)
	stream := appendFrame(nil, frameReq, 3, reqPayload("StreamThreats", 0, ""))
	stream = appendFrame(stream, frameMsg, 3, []byte(`{"home":"h1"}`))
	stream = appendFrame(stream, frameMsg, 3, []byte(`{}`))
	stream = appendFrame(stream, frameEOS, 3, nil)
	f.Add(stream)
	f.Add(appendFrame(nil, frameReq, 5, []byte{7, 'I', 'n', 's'}))       // truncated method
	f.Add(appendFrame(nil, frameReq, 7, reqPayload("Ping", 0, ""))[:20]) // truncated frame
	f.Add(install[:10])                                                  // truncated frame header
	f.Add(appendFrame(nil, frameReq, 9, reqPayload("Nope", -5, "{")))
	f.Fuzz(func(t *testing.T, data []byte) {
		serveBytes(t, append([]byte(Preface), data...))
	})
}

// FuzzDecodeStatus feeds arbitrary RES payloads to the client's
// decoder: the result is an error or a decoded value, never a panic,
// and a nonzero status never decodes as success.
func FuzzDecodeStatus(f *testing.F) {
	f.Add([]byte("\x00{\"homeId\":\"h1\",\"app\":\"ComfortTV\"}"))
	f.Add([]byte("\x00"))
	f.Add([]byte("\x05{\"code\":\"NOT_FOUND\",\"message\":\"no such home\"}"))
	f.Add([]byte("\x0e{\"code\":\"UNAVAILABLE\",\"message\":\"shed\",\"retryAfterMs\":3}"))
	f.Add([]byte("\x0d{}"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		err := decodeStatus(data, new(api.InstallResponse))
		if len(data) > 0 && data[0] != 0 && err == nil {
			t.Fatalf("status %d decoded as success", data[0])
		}
		var aerr *api.Error
		if errors.As(err, &aerr) && aerr.Code == "" {
			t.Fatalf("error envelope without a code: %v", err)
		}
	})
}
