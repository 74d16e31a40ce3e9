package rpc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"homeguard/internal/api"
)

// recordingBackend is a fake Backend that records each call's method
// and request and answers with an empty success (or NOT_FOUND for the
// home "ghost").
type recordingBackend struct {
	calls []recordedCall
}

type recordedCall struct {
	method string
	req    any
}

func (c recordedCall) String() string { return fmt.Sprintf("%s%+v", c.method, c.req) }

func (b *recordingBackend) record(method string, req any) {
	b.calls = append(b.calls, recordedCall{method, req})
}

func (b *recordingBackend) Install(_ context.Context, req *api.InstallRequest) (*api.InstallResponse, *api.Error) {
	b.record("Install", req)
	return &api.InstallResponse{HomeID: req.Home}, nil
}

func (b *recordingBackend) InstallBatch(_ context.Context, req *api.InstallBatchRequest) (*api.InstallBatchResponse, *api.Error) {
	b.record("InstallBatch", req)
	return &api.InstallBatchResponse{HomeID: req.Home}, nil
}

func (b *recordingBackend) Reconfigure(_ context.Context, req *api.ReconfigureRequest) (*api.ReconfigureResponse, *api.Error) {
	b.record("Reconfigure", req)
	return &api.ReconfigureResponse{HomeID: req.Home}, nil
}

func (b *recordingBackend) Threats(_ context.Context, req *api.ThreatsRequest) (*api.ThreatsResponse, *api.Error) {
	b.record("Threats", req)
	return &api.ThreatsResponse{HomeID: req.Home}, nil
}

func (b *recordingBackend) Accept(_ context.Context, req *api.AcceptRequest) (*api.AcceptResponse, *api.Error) {
	b.record("Accept", req)
	return &api.AcceptResponse{HomeID: req.Home}, nil
}

func (b *recordingBackend) Apps(_ context.Context, home string) (*api.AppsResponse, *api.Error) {
	b.record("Apps", home)
	if home == "ghost" {
		return nil, api.Errorf(api.CodeNotFound, "no home %q", home)
	}
	return &api.AppsResponse{HomeID: home}, nil
}

func (b *recordingBackend) SubmitApps(_ context.Context, req *api.SubmitAppsRequest) (*api.SubmitAppsResponse, *api.Error) {
	b.record("SubmitApps", req)
	return &api.SubmitAppsResponse{}, nil
}

func (b *recordingBackend) Findings(_ context.Context, req *api.FindingsRequest) (*api.FindingsResponse, *api.Error) {
	b.record("Findings", req)
	return &api.FindingsResponse{Since: req.Since}, nil
}

func (b *recordingBackend) Ping(context.Context) (*api.PingResponse, *api.Error) {
	b.record("Ping", nil)
	return &api.PingResponse{}, nil
}

func (b *recordingBackend) MigrateHome(_ context.Context, req *api.MigrateHomeRequest) (*api.MigrateHomeResponse, *api.Error) {
	b.record("MigrateHome", req)
	return &api.MigrateHomeResponse{}, nil
}

func (b *recordingBackend) AdoptHome(_ context.Context, req *api.AdoptHomeRequest) (*api.AdoptHomeResponse, *api.Error) {
	b.record("AdoptHome", req)
	return &api.AdoptHomeResponse{}, nil
}

func (b *recordingBackend) BreakerState(string) string { return "closed" }

func serveHTTP(b Backend, method, path, body string) *httptest.ResponseRecorder {
	mux := http.NewServeMux()
	RegisterHTTP(mux, b)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// TestHTTPRoutesReachBackend pins the route table: every API route
// reaches its Backend method with the request the body and query
// describe and the home taken from the path — even when the body names
// another one.
func TestHTTPRoutesReachBackend(t *testing.T) {
	cases := []struct {
		method, path, body string
		want               recordedCall
	}{
		{"POST", "/homes/h1/install", `{"corpus": "ComfortTV", "home": "spoof"}` + "\n",
			recordedCall{"Install", &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"}}},
		{"POST", "/homes/h2/install-batch", `{"items": [{"corpus": "ComfortTV"}]}`,
			recordedCall{"InstallBatch", &api.InstallBatchRequest{Home: "h2", Items: []api.InstallItem{{Corpus: "ComfortTV"}}}}},
		{"POST", "/homes/h3/reconfigure", `{"app": "ComfortTV", "home": "spoof"}`,
			recordedCall{"Reconfigure", &api.ReconfigureRequest{Home: "h3", App: "ComfortTV"}}},
		{"POST", "/homes/h4/accept", `{"threats": [0, 2]}`,
			recordedCall{"Accept", &api.AcceptRequest{Home: "h4", Threats: []int{0, 2}}}},
		{"GET", "/homes/h5/threats", "",
			recordedCall{"Threats", &api.ThreatsRequest{Home: "h5"}}},
		{"GET", "/homes/h5/threats?active=true", "",
			recordedCall{"Threats", &api.ThreatsRequest{Home: "h5", Active: true}}},
		{"GET", "/homes/h5/threats?active=1", "",
			recordedCall{"Threats", &api.ThreatsRequest{Home: "h5", Active: true}}},
		{"GET", "/homes/h5/threats?active=yes", "",
			recordedCall{"Threats", &api.ThreatsRequest{Home: "h5"}}},
		{"GET", "/homes/h6/apps", "",
			recordedCall{"Apps", "h6"}},
		{"POST", "/store/apps", `{"removes": ["ComfortTV"]}`,
			recordedCall{"SubmitApps", &api.SubmitAppsRequest{Removes: []string{"ComfortTV"}}}},
		{"GET", "/store/findings", "",
			recordedCall{"Findings", &api.FindingsRequest{}}},
		{"GET", "/store/findings?since=7", "",
			recordedCall{"Findings", &api.FindingsRequest{Since: 7}}},
	}
	for _, c := range cases {
		b := &recordingBackend{}
		w := serveHTTP(b, c.method, c.path, c.body)
		if w.Code != http.StatusOK {
			t.Errorf("%s %s: status %d body %s", c.method, c.path, w.Code, w.Body)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", c.method, c.path, ct)
		}
		if len(b.calls) != 1 || !reflect.DeepEqual(b.calls[0], c.want) {
			t.Errorf("%s %s: backend saw %v, want exactly [%v]", c.method, c.path, b.calls, c.want)
		}
	}

	// A backend error is written as the envelope with its mapped status.
	w := serveHTTP(&recordingBackend{}, "GET", "/homes/ghost/apps", "")
	if w.Code != http.StatusNotFound || envelopeCode(t, w) != api.CodeNotFound {
		t.Errorf("backend NOT_FOUND: status %d body %s", w.Code, w.Body)
	}
}

// TestHTTPRejectsBadInput: bodies and queries the adapter cannot turn
// into exactly one request answer INVALID_ARGUMENT (400) and never reach
// the backend — including trailing data after the first JSON value,
// which a plain json.Decoder would silently ignore.
func TestHTTPRejectsBadInput(t *testing.T) {
	oversized := `{"source": "` + strings.Repeat("a", maxBodyBytes) + `"}`
	cases := []struct {
		method, path, body string
	}{
		{"POST", "/homes/h1/install", ""},
		{"POST", "/homes/h1/install", `{"corpus": `},
		{"POST", "/homes/h1/install", `{"corpus": 7}`},
		{"POST", "/homes/h1/install", `{"corpus":"ComfortTV"}{"corpus":"ColdDefender"} trailing junk`},
		{"POST", "/homes/h1/install", `{"corpus":"ComfortTV"} {"corpus":"ColdDefender"}`},
		{"POST", "/homes/h1/install", `{"corpus":"ComfortTV"} x`},
		{"POST", "/homes/h1/install", oversized},
		{"POST", "/homes/h1/install", `{"corpus":"ComfortTV"}` + strings.Repeat(" ", maxBodyBytes)},
		{"POST", "/homes/h1/install-batch", `{"items": [}`},
		{"POST", "/homes/h1/reconfigure", `{"app": "A"} []`},
		{"POST", "/homes/h1/accept", `{"threats": ["zero"]}`},
		{"POST", "/store/apps", `{"removes": ["A"]}{}`},
		{"GET", "/store/findings?since=abc", ""},
		{"GET", "/store/findings?since=-1", ""},
	}
	for _, c := range cases {
		b := &recordingBackend{}
		w := serveHTTP(b, c.method, c.path, c.body)
		name := c.method + " " + c.path + " " + c.body
		if len(name) > 120 {
			name = name[:120] + "..."
		}
		if w.Code != http.StatusBadRequest || envelopeCode(t, w) != api.CodeInvalidArgument {
			t.Errorf("%s: status %d body %.200s, want 400 INVALID_ARGUMENT", name, w.Code, w.Body)
		}
		if len(b.calls) != 0 {
			t.Errorf("%s: reached the backend: %v", name, b.calls)
		}
	}
}

func envelopeCode(t *testing.T, w *httptest.ResponseRecorder) api.Code {
	t.Helper()
	var env struct {
		Error *api.Error `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("not an error envelope: %s (%v)", w.Body, err)
	}
	return env.Error.Code
}
