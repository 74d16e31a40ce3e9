// Package paritytest holds the transport-parity check every binary
// that serves both edges runs in its tests: the same operation
// sequence goes through the binary's HTTP edge and its HGRPC edge, and
// the two must agree on every payload and every error — identical
// threat verdicts, identical envelope codes, and HTTP statuses that
// are exactly the envelope code's HTTPStatus mapping. This is the
// contract that lets clients switch transports without behavior drift.
package paritytest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/rpc"
)

// Run drives the sequence through h (an HTTP edge) and c (a client of
// an HGRPC edge). The two edges must serve separate, fresh state: each
// sees every mutation once.
func Run(t *testing.T, h http.Handler, c *rpc.Client) {
	t.Helper()
	ctx := context.Background()

	// Each step runs one operation on both edges and compares the two
	// (payload, code) outcomes; payload is nil on error.
	type outcome struct {
		body map[string]any
		code api.Code
	}
	viaHTTP := func(method, path string, body any) outcome {
		status, resp := doJSON(t, h, method, path, body)
		if errObj, ok := resp["error"].(map[string]any); ok {
			code := api.Code(errObj["code"].(string))
			if want := code.HTTPStatus(); status != want {
				t.Errorf("HTTP %s %s: status %d for code %s, want %d", method, path, status, code, want)
			}
			return outcome{code: code}
		}
		return outcome{body: resp, code: api.CodeOK}
	}
	viaRPC := func(resp any, err error) outcome {
		if err != nil {
			var aerr *api.Error
			if !errors.As(err, &aerr) {
				t.Fatalf("RPC returned a non-envelope error: %v", err)
			}
			return outcome{code: aerr.Code}
		}
		b, merr := json.Marshal(resp)
		if merr != nil {
			t.Fatal(merr)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return outcome{body: m, code: api.CodeOK}
	}
	check := func(name string, h, r outcome) {
		t.Helper()
		if h.code != r.code {
			t.Errorf("%s: HTTP code %s != RPC code %s", name, h.code, r.code)
			return
		}
		if !reflect.DeepEqual(h.body, r.body) {
			hb, _ := json.Marshal(h.body)
			rb, _ := json.Marshal(r.body)
			t.Errorf("%s: payloads diverge\n  http: %s\n  rpc:  %s", name, hb, rb)
		}
	}

	steps := []struct {
		name string
		http func() outcome
		rpc  func() outcome
	}{
		{"install ComfortTV", func() outcome {
			return viaHTTP("POST", "/homes/h1/install", map[string]any{"corpus": "ComfortTV"})
		}, func() outcome {
			return viaRPC(c.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"}))
		}},
		{"install ColdDefender (threats)", func() outcome {
			return viaHTTP("POST", "/homes/h1/install", map[string]any{"corpus": "ColdDefender"})
		}, func() outcome {
			return viaRPC(c.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ColdDefender"}))
		}},
		{"duplicate install", func() outcome {
			return viaHTTP("POST", "/homes/h1/install", map[string]any{"corpus": "ComfortTV"})
		}, func() outcome {
			return viaRPC(c.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"}))
		}},
		{"unknown corpus", func() outcome {
			return viaHTTP("POST", "/homes/h1/install", map[string]any{"corpus": "NoSuchApp"})
		}, func() outcome {
			return viaRPC(c.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "NoSuchApp"}))
		}},
		{"empty install body", func() outcome {
			return viaHTTP("POST", "/homes/h1/install", map[string]any{})
		}, func() outcome {
			return viaRPC(c.Install(ctx, &api.InstallRequest{Home: "h1"}))
		}},
		{"install batch", func() outcome {
			return viaHTTP("POST", "/homes/h2/install-batch", map[string]any{
				"items": []map[string]any{{"corpus": "ComfortTV"}, {"corpus": "NoSuchApp"}},
			})
		}, func() outcome {
			return viaRPC(c.InstallBatch(ctx, &api.InstallBatchRequest{
				Home:  "h2",
				Items: []api.InstallItem{{Corpus: "ComfortTV"}, {Corpus: "NoSuchApp"}},
			}))
		}},
		{"reconfigure", func() outcome {
			return viaHTTP("POST", "/homes/h1/reconfigure", map[string]any{"app": "ColdDefender"})
		}, func() outcome {
			return viaRPC(c.Reconfigure(ctx, &api.ReconfigureRequest{Home: "h1", App: "ColdDefender"}))
		}},
		{"reconfigure unknown app", func() outcome {
			return viaHTTP("POST", "/homes/h1/reconfigure", map[string]any{"app": "Ghost"})
		}, func() outcome {
			return viaRPC(c.Reconfigure(ctx, &api.ReconfigureRequest{Home: "h1", App: "Ghost"}))
		}},
		{"threats", func() outcome {
			return viaHTTP("GET", "/homes/h1/threats", nil)
		}, func() outcome {
			return viaRPC(c.Threats(ctx, &api.ThreatsRequest{Home: "h1"}))
		}},
		{"threats unknown home", func() outcome {
			return viaHTTP("GET", "/homes/ghost/threats", nil)
		}, func() outcome {
			return viaRPC(c.Threats(ctx, &api.ThreatsRequest{Home: "ghost"}))
		}},
		{"accept", func() outcome {
			return viaHTTP("POST", "/homes/h1/accept", map[string]any{"threats": []int{0}})
		}, func() outcome {
			return viaRPC(c.Accept(ctx, &api.AcceptRequest{Home: "h1", Threats: []int{0}}))
		}},
		{"accept out of range", func() outcome {
			return viaHTTP("POST", "/homes/h1/accept", map[string]any{"threats": []int{99}})
		}, func() outcome {
			return viaRPC(c.Accept(ctx, &api.AcceptRequest{Home: "h1", Threats: []int{99}}))
		}},
		{"active threats", func() outcome {
			return viaHTTP("GET", "/homes/h1/threats?active=true", nil)
		}, func() outcome {
			return viaRPC(c.Threats(ctx, &api.ThreatsRequest{Home: "h1", Active: true}))
		}},
		{"apps", func() outcome {
			return viaHTTP("GET", "/homes/h1/apps", nil)
		}, func() outcome {
			return viaRPC(c.Apps(ctx, "h1"))
		}},
	}
	for _, s := range steps {
		check(s.name, s.http(), s.rpc())
	}
}

// doJSON serves one request on h and decodes the JSON reply.
func doJSON(t *testing.T, h http.Handler, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON response %q: %v", method, path, w.Body.String(), err)
	}
	return w.Code, out
}
