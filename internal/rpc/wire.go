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
// A connection starts with the 8-byte client preface "HGRPC/2\x00".
// Every frame thereafter is
//
//	[type:1][stream id:8 BE][payload length:4 BE][payload]
//
// with payloads capped at 4 MiB (the HTTP body cap). Frame
// types:
//
//	REQ (1) — opens stream id. Payload:
//	          [method length:1][method][deadlineMs:8 BE][body JSON]
//	          deadlineMs 0 means none; unary methods carry the request
//	          JSON as body, stream methods send no body.
//	MSG (2) — one message on an open stream. Client to server: one
//	          request JSON. Server to client: [status:1][JSON], one
//	          per-item outcome laid out like RES.
//	EOS (3) — half-close: the sender is done sending MSG frames.
//	RES (4) — terminates the stream. Payload: [status:1][JSON], where
//	          status is the gRPC status number. The JSON is the reply
//	          body when status is 0 (empty for a stream's trailer) and
//	          the api.Error envelope otherwise.
//
// The only JSON on the wire is the request and reply bodies and the
// error envelope, so one RPC costs one JSON encode and one JSON decode
// on each side. A REQ header that does not parse answers
// INVALID_ARGUMENT.
//
// Stream ids are client-chosen, strictly increasing, and multiplex
// concurrent RPCs over one connection; writes are serialized by a
// per-connection mutex on each side.
//
// Version 2 of the protocol replaced version 1's JSON envelopes, and
// there is no fallback: a server drops a connection whose preface is
// not its own, so a version-1 client sees UNAVAILABLE on its first
// call, and a gateway and a node built at different versions fail fast
// at connect instead of misreading each other's frames.
package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"homeguard/internal/api"
)

// Frame types.
const (
	frameReq = 1 // open stream: method, deadline, unary body
	frameMsg = 2 // one streamed message
	frameEOS = 3 // half-close by the sender
	frameRes = 4 // final status (+ unary body)
)

// Preface is the 8-byte string a client writes immediately after
// connecting.
const Preface = "HGRPC/2\x00"

// maxFrame caps frame payloads, mirroring the HTTP body cap.
const maxFrame = maxBodyBytes

// frame is one wire frame.
type frame struct {
	typ     byte
	id      uint64
	payload []byte
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

// appendReqHeader appends a REQ payload's method and deadline fields.
func appendReqHeader(b []byte, method string, deadlineMs int64) ([]byte, error) {
	if len(method) > 0xff {
		return b, fmt.Errorf("rpc: method name of %d bytes exceeds 255", len(method))
	}
	b = append(b, byte(len(method)))
	b = append(b, method...)
	return binary.BigEndian.AppendUint64(b, uint64(deadlineMs)), nil
}

// parseReq splits a REQ payload into its method, deadline and body.
// The body aliases p.
func parseReq(p []byte) (method string, deadlineMs int64, body []byte, err error) {
	if len(p) < 1 || len(p) < 1+int(p[0])+8 {
		return "", 0, nil, errors.New("truncated method or deadline")
	}
	n := 1 + int(p[0])
	return string(p[1:n]), int64(binary.BigEndian.Uint64(p[n:])), p[n+8:], nil
}

// parseStatus splits a RES or server MSG payload. It returns the reply
// JSON (aliasing p) when the status is 0, and the decoded error
// envelope otherwise. A malformed payload is a plain error.
func parseStatus(p []byte) (json.RawMessage, *api.Error, error) {
	if len(p) == 0 {
		return nil, nil, errors.New("rpc: bad response: empty payload")
	}
	status, body := p[0], p[1:]
	if status == 0 {
		return body, nil, nil
	}
	aerr := new(api.Error)
	if err := json.Unmarshal(body, aerr); err != nil {
		return nil, nil, fmt.Errorf("rpc: bad error envelope for status %d: %w", status, err)
	}
	if aerr.Code == "" {
		return nil, api.Errorf(api.CodeInternal, "status %d with no error envelope", status), nil
	}
	return nil, aerr, nil
}

// encBuf is a reusable JSON encode buffer. Encoding straight into it
// skips the copy json.Marshal makes of its result; the encoder never
// latches an error because writes to a bytes.Buffer cannot fail.
type encBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

// maxPooledBuf keeps buffers that grew for a rare large payload (a
// migrated home's snapshot) from staying pinned in the pool.
const maxPooledBuf = 64 << 10

var encBufs = sync.Pool{New: func() any {
	b := new(encBuf)
	b.enc = json.NewEncoder(&b.Buffer)
	return b
}}

func getEncBuf() *encBuf { return encBufs.Get().(*encBuf) }

func putEncBuf(b *encBuf) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	encBufs.Put(b)
}

// encode appends v's JSON, as json.Marshal would produce it, to b.
func (b *encBuf) encode(v any) error {
	n := b.Len()
	if err := b.enc.Encode(v); err != nil {
		b.Truncate(n)
		return err
	}
	b.Truncate(b.Len() - 1) // Encode's trailing newline
	return nil
}

// frameWriter serializes frame writes from concurrent RPC handlers
// onto one connection.
type frameWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	hdr [13]byte // guarded by mu
}

// header writes a frame header for a payload of n bytes. fw.mu must be
// held.
func (fw *frameWriter) header(typ byte, id uint64, n int) error {
	if n > maxFrame {
		return fmt.Errorf("rpc: frame of %d bytes exceeds the %d byte cap", n, maxFrame)
	}
	fw.hdr[0] = typ
	binary.BigEndian.PutUint64(fw.hdr[1:9], id)
	binary.BigEndian.PutUint32(fw.hdr[9:13], uint32(n))
	_, err := fw.w.Write(fw.hdr[:])
	return err
}

// write emits one frame and flushes. Flushing per frame keeps
// streaming interactive; the bufio layer still coalesces header and
// payload into one syscall.
func (fw *frameWriter) write(typ byte, id uint64, payload []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := fw.header(typ, id, len(payload)); err != nil {
		return err
	}
	if _, err := fw.w.Write(payload); err != nil {
		return err
	}
	return fw.w.Flush()
}

// writeStatus emits a [status][body] frame (RES, or a server MSG)
// without first joining the status byte and the body.
func (fw *frameWriter) writeStatus(typ byte, id uint64, status byte, body []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := fw.header(typ, id, 1+len(body)); err != nil {
		return err
	}
	if err := fw.w.WriteByte(status); err != nil {
		return err
	}
	if _, err := fw.w.Write(body); err != nil {
		return err
	}
	return fw.w.Flush()
}
