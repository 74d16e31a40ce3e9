// Package rpc is HomeGuard's enforcement edge: the framed gRPC-modeled
// request/response transport, the HTTP/JSON adapter (RegisterHTTP) the
// daemon and the gateway serve alongside it, the per-stage circuit
// breakers that shed load when extraction or detection degrades, and
// the service core both transports share.
//
// # Protocol
//
// The wire protocol models gRPC: the status-code vocabulary, numeric
// values and error semantics are gRPC's (api.Code.GRPC), every RPC
// carries an optional client deadline, and the method set offers unary
// calls plus bidirectional streams. The framing, however, is a
// self-contained length-prefixed format rather than HTTP/2 — this
// repository builds without third-party dependencies — so swapping in
// google.golang.org/grpc later is a transport-only change: the service
// core (Service), the status mapping (internal/api) and the breaker
// semantics all carry over unchanged.
//
// A connection starts with the 8-byte client preface "HGRPC/1\x00".
// Every frame thereafter is
//
//	[type:1][stream id:8 BE][payload length:4 BE][payload]
//
// with payloads capped at 4 MiB (the HTTP body cap). Frame
// types:
//
//	REQ (1) — opens stream id with {"method","deadlineMs","body"};
//	          unary methods carry the request in body, stream methods
//	          leave it empty.
//	MSG (2) — one JSON message on an open stream (client: requests;
//	          server: per-item results).
//	EOS (3) — half-close: the sender is done sending MSG frames.
//	RES (4) — terminates the stream with {"status","error","body"};
//	          unary responses carry the reply in body, streams use it
//	          as a trailer after their MSG frames.
//
// Stream ids are client-chosen, strictly increasing, and multiplex
// concurrent RPCs over one connection; writes are serialized by a
// per-connection mutex on each side.
package rpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"homeguard/internal/api"
)

// Frame types.
const (
	frameReq = 1 // open stream: header payload
	frameMsg = 2 // one streamed JSON message
	frameEOS = 3 // half-close by the sender
	frameRes = 4 // final status (+ unary body)
)

// Preface is the 8-byte string a client writes immediately after
// connecting.
const Preface = "HGRPC/1\x00"

// maxFrame caps frame payloads, mirroring the HTTP body cap.
const maxFrame = maxBodyBytes

// frame is one wire frame.
type frame struct {
	typ     byte
	id      uint64
	payload []byte
}

// reqHeader is the REQ frame payload: which method to invoke and the
// client's deadline for the whole RPC (0 = none; the server may still
// impose its own).
type reqHeader struct {
	Method     string          `json:"method"`
	DeadlineMs int64           `json:"deadlineMs,omitempty"`
	Body       json.RawMessage `json:"body,omitempty"`
}

// resPayload is the RES frame payload: the gRPC status number, the
// shared error envelope when Status != 0, and the unary response body.
type resPayload struct {
	Status int             `json:"status"`
	Error  *api.Error      `json:"error,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
}

// streamItem wraps one per-item outcome on a response stream: exactly
// one of Result and Error is set, so a bad item reports its error
// without tearing down the stream.
type streamItem struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  *api.Error      `json:"error,omitempty"`
}

// readFrame reads one frame, rejecting oversized payloads.
func readFrame(r *bufio.Reader) (frame, error) {
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	f := frame{typ: hdr[0], id: binary.BigEndian.Uint64(hdr[1:9])}
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > maxFrame {
		return frame{}, fmt.Errorf("rpc: frame of %d bytes exceeds the %d byte cap", n, maxFrame)
	}
	if n > 0 {
		f.payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.payload); err != nil {
			return frame{}, err
		}
	}
	return f, nil
}

// frameWriter serializes frame writes from concurrent RPC handlers
// onto one connection.
type frameWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

// write emits one frame and flushes. Flushing per frame keeps
// streaming interactive; the bufio layer still coalesces header and
// payload into one syscall.
func (fw *frameWriter) write(typ byte, id uint64, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("rpc: frame of %d bytes exceeds the %d byte cap", len(payload), maxFrame)
	}
	var hdr [13]byte
	hdr[0] = typ
	binary.BigEndian.PutUint64(hdr[1:9], id)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := fw.w.Write(payload); err != nil {
		return err
	}
	return fw.w.Flush()
}

// writeJSON marshals v and writes it as a frame of the given type.
func (fw *frameWriter) writeJSON(typ byte, id uint64, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return fw.write(typ, id, b)
}
