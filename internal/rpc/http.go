package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"strconv"

	"homeguard/internal/api"
)

// maxBodyBytes caps HTTP request bodies (SmartApp sources are a few KB;
// 4 MiB leaves generous headroom while keeping one request from
// exhausting the server's memory).
const maxBodyBytes = 4 << 20

// RegisterHTTP mounts the HTTP/JSON API on mux, every route dispatching
// into b — the same Backend the HGRPC Server serves, so a binary that
// serves both edges answers identically on either wire. Every error
// body is the shared envelope {"error": {"code": "...", "message": ...}}
// with the code drawn from the gRPC vocabulary and the HTTP status from
// api.Code.HTTPStatus. A malformed body, trailing data after the JSON
// value, a body over 4 MiB, or a bad ?since= answers INVALID_ARGUMENT
// (400) without reaching b.
//
//	POST /homes/{id}/install        body {"source": "..."} or {"corpus": "AppName"},
//	                                optional "config"; returns the install
//	                                result (rules, threats, chains, report)
//	POST /homes/{id}/install-batch  body {"items": [{"corpus": ...}, ...]};
//	                                installs in order with parallel
//	                                extraction prewarm; per-item results
//	POST /homes/{id}/reconfigure    body {"app": "AppName", "config": {...}};
//	                                returns threats under the new config;
//	                                omitting config keeps the current one
//	POST /homes/{id}/accept         body {"threats": [0, 2]} — accept
//	                                threats by log index so later installs
//	                                report chains through them (Sec. VI-D)
//	GET  /homes/{id}/threats        every threat reported for the home;
//	                                ?active=true (or 1) returns the
//	                                incremental ledger's CURRENT set instead
//	                                (latest verdict per app pair —
//	                                reconfigure-resolved threats gone;
//	                                entries carry no log indices)
//	GET  /homes/{id}/apps           installed app names
//	POST /store/apps                body {"upserts": [{"corpus"|"source": ...,
//	                                "name": ..., "config": ...}],
//	                                "removes": ["AppName"]}; applies one
//	                                batch to the incremental store auditor
//	                                and returns the revision with its
//	                                added/resolved findings delta
//	GET  /store/findings            store findings feed; ?since=<rev>
//	                                returns the delta after that revision
//	                                (or a reset snapshot when the revision
//	                                aged out of the retained history)
//
// The config object has four optional maps:
//
//	{
//	  "devices":     {"inputName": "device-id"},
//	  "values":      {"inputName": "string or number or bool"},
//	  "valueLists":  {"inputName": ["a", "b"]},
//	  "deviceTypes": {"inputName": "heater"}
//	}
func RegisterHTTP(mux *http.ServeMux, b Backend) {
	mux.Handle("POST /homes/{id}/install", withBody(func(ctx context.Context, home string, req *api.InstallRequest) (any, *api.Error) {
		req.Home = home
		return b.Install(ctx, req)
	}))
	mux.Handle("POST /homes/{id}/install-batch", withBody(func(ctx context.Context, home string, req *api.InstallBatchRequest) (any, *api.Error) {
		req.Home = home
		return b.InstallBatch(ctx, req)
	}))
	mux.Handle("POST /homes/{id}/reconfigure", withBody(func(ctx context.Context, home string, req *api.ReconfigureRequest) (any, *api.Error) {
		req.Home = home
		return b.Reconfigure(ctx, req)
	}))
	mux.Handle("POST /homes/{id}/accept", withBody(func(ctx context.Context, home string, req *api.AcceptRequest) (any, *api.Error) {
		req.Home = home
		return b.Accept(ctx, req)
	}))
	mux.Handle("POST /store/apps", withBody(func(ctx context.Context, _ string, req *api.SubmitAppsRequest) (any, *api.Error) {
		return b.SubmitApps(ctx, req)
	}))
	mux.HandleFunc("GET /homes/{id}/threats", func(w http.ResponseWriter, r *http.Request) {
		v := r.URL.Query().Get("active")
		req := api.ThreatsRequest{Home: r.PathValue("id"), Active: v == "true" || v == "1"}
		resp, aerr := b.Threats(r.Context(), &req)
		RespondHTTP(w, resp, aerr)
	})
	mux.HandleFunc("GET /homes/{id}/apps", func(w http.ResponseWriter, r *http.Request) {
		resp, aerr := b.Apps(r.Context(), r.PathValue("id"))
		RespondHTTP(w, resp, aerr)
	})
	mux.HandleFunc("GET /store/findings", func(w http.ResponseWriter, r *http.Request) {
		var req api.FindingsRequest
		if v := r.URL.Query().Get("since"); v != "" {
			since, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				RespondHTTP(w, nil, api.Errorf(api.CodeInvalidArgument, "bad since revision %q", v))
				return
			}
			req.Since = since
		}
		resp, aerr := b.Findings(r.Context(), &req)
		RespondHTTP(w, resp, aerr)
	})
}

// withBody adapts one body-carrying route: it decodes the JSON body into
// a fresh Req and hands call the request context and the {id} path
// segment ("" on routes without one).
func withBody[Req any](call func(ctx context.Context, home string, req *Req) (any, *api.Error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !DecodeHTTP(w, r, &req) {
			return
		}
		resp, aerr := call(r.Context(), r.PathValue("id"), &req)
		RespondHTTP(w, resp, aerr)
	}
}

// DecodeHTTP unmarshals exactly one JSON value from the request body,
// capped at 4 MiB. Malformed input, trailing data after the value, or
// an oversized body answers the envelope with INVALID_ARGUMENT (400).
// It reports whether the handler should proceed.
func DecodeHTTP(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(into)
	if err == nil {
		// A second value or junk after the first must not be dropped
		// silently: the client meant something the server did not do.
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		RespondHTTP(w, nil, api.Errorf(api.CodeInvalidArgument, "bad request body: %v", err))
		return false
	}
	return true
}

// RespondHTTP writes either the success body (200) or the error
// envelope, with the HTTP status derived from the envelope's code.
func RespondHTTP(w http.ResponseWriter, v any, aerr *api.Error) {
	status := http.StatusOK
	if aerr != nil {
		status, v = aerr.Code.HTTPStatus(), map[string]any{"error": aerr}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("rpc: encode http response: %v", err)
	}
}
