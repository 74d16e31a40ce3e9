package snapcodec

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestSectionsCompose pins the property homeguardd's snapshot file relies
// on: two sections written back-to-back on one stream restore back-to-back
// from one reader — each reader consumes exactly its own trailer and not
// a byte more.
func TestSectionsCompose(t *testing.T) {
	var buf bytes.Buffer
	w1, err := NewWriter(&buf, "SECTONE\x00", 1)
	if err != nil {
		t.Fatal(err)
	}
	w1.Record([]byte("alpha"))
	w1.Record([]byte("beta"))
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := NewWriter(&buf, "SECTTWO\x00", 7)
	if err != nil {
		t.Fatal(err)
	}
	w2.Record([]byte("gamma"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(buf.Bytes())
	r1, err := NewReader(r, "SECTONE\x00", 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		rec, err := r1.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(rec))
	}
	if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("section one records = %q", got)
	}
	r2, err := NewReader(r, "SECTTWO\x00", 7)
	if err != nil {
		t.Fatalf("section two header after section one trailer: %v", err)
	}
	rec, err := r2.Next()
	if err != nil || string(rec) != "gamma" {
		t.Fatalf("section two record = %q, %v", rec, err)
	}
	if _, err := r2.Next(); err != io.EOF {
		t.Fatalf("section two end: %v, want io.EOF", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d unread bytes after both sections", r.Len())
	}
}

// TestEmptySection: zero records round-trip (a fleet may snapshot before
// any traffic).
func TestEmptySection(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "EMPTYSEC", 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), "EMPTYSEC", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty section: %v, want io.EOF", err)
	}
}

// TestOversizedRecordRejected: a length prefix beyond the bound is
// corruption, not an allocation request.
func TestOversizedRecordRejected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "BOUNDSEC", 1)
	w.Record([]byte("ok"))
	w.Close()
	raw := buf.Bytes()
	// The first record's length prefix starts right after the 12-byte
	// header; rewrite it to a huge value.
	raw[12], raw[13], raw[14], raw[15] = 0xFE, 0xFF, 0xFF, 0xFF
	r, err := NewReader(bytes.NewReader(raw), "BOUNDSEC", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized record: %v, want ErrCorrupt", err)
	}
}

// TestVerify: a stream of intact sections verifies whatever their magic
// and version, and flipping any one byte or cutting the stream short
// inside a section is refused as ErrCorrupt.
func TestVerify(t *testing.T) {
	var buf bytes.Buffer
	boundary := map[int]bool{}
	for i, magic := range []string{"SECTONE\x00", "SECTTWO\x00"} {
		boundary[buf.Len()] = true
		w, err := NewWriter(&buf, magic, uint32(i+1))
		if err != nil {
			t.Fatal(err)
		}
		w.Record([]byte("alpha"))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	raw := buf.Bytes()
	if err := Verify(bytes.NewReader(raw)); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	for i := range raw {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x20
		if err := Verify(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: %v, want ErrCorrupt", i, err)
		}
		if boundary[i] {
			continue // a whole number of sections is a valid stream
		}
		if err := Verify(bytes.NewReader(raw[:i])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: %v, want ErrCorrupt", i, err)
		}
	}
}
