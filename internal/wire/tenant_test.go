package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"shmd/internal/trace"
)

// TestHelloMetaRoundTrip pins the v1.1 HELLO metadata section: an
// empty map encodes byte-identically to a pre-metadata HELLO, and a
// populated map survives a round trip with sorted, canonical bytes.
func TestHelloMetaRoundTrip(t *testing.T) {
	bare := AppendHello(nil, Hello{Version: 1, MaxFrame: 1 << 20})
	if len(bare) != 5 {
		t.Fatalf("bare HELLO is %d bytes, want the pre-metadata 5", len(bare))
	}
	h := Hello{Version: 1, MaxFrame: 1 << 20, Meta: map[string]string{
		MetaTenant: "acme",
		MetaClass:  "realtime",
	}}
	enc := AppendHello(nil, h)
	if !bytes.Equal(enc[:5], bare) {
		t.Fatalf("metadata moved the base fields:\n got %x\nwant prefix %x", enc, bare)
	}
	got, err := DecodeHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta[MetaTenant] != "acme" || got.Meta[MetaClass] != "realtime" || len(got.Meta) != 2 {
		t.Fatalf("meta round trip: %+v", got.Meta)
	}
	if re := AppendHello(nil, got); !bytes.Equal(re, enc) {
		t.Fatalf("re-encode not canonical:\n got %x\nwant %x", re, enc)
	}
}

// TestHelloMetaLegacySkip is the version-stability regression: an
// endpoint built before the metadata section existed must handle a
// metadata-bearing HELLO cleanly. Two layers guarantee that:
//
//  1. the frame layer is payload-agnostic — the frame decodes, and a
//     stream carrying [hello+meta, ping] still delivers the ping;
//  2. the pre-metadata payload fields sit byte-for-byte at the front,
//     so a legacy reader that stops after version+max_frame (frozen
//     here exactly as v1.0 read them) extracts the right values and
//     skips the tail it does not know.
func TestHelloMetaLegacySkip(t *testing.T) {
	payload := AppendHello(nil, Hello{Version: 1, MaxFrame: 1 << 20, Meta: map[string]string{MetaTenant: "acme"}})
	raw := AppendFrame(nil, Frame{Type: FrameHello, Payload: payload})

	// The connection keeps flowing past it.
	streamBytes := append(append([]byte{}, raw...), AppendFrame(nil, Frame{Type: FramePing, Corr: 3})...)
	r := bytes.NewReader(streamBytes)
	var hdr [FrameHeaderLen]byte
	f, err := readWireFrame(r, DefaultMaxFramePayload, &hdr)
	if n := len(streamBytes) - r.Len(); err != nil || n != len(raw) || f.Type != FrameHello {
		t.Fatalf("frame-level decode of metadata-bearing HELLO: %+v, n=%d, %v", f, n, err)
	}
	if second, err := readWireFrame(r, DefaultMaxFramePayload, &hdr); err != nil || second.Type != FramePing || second.Corr != 3 {
		t.Fatalf("second frame after metadata HELLO: %+v, %v", second, err)
	}

	// Frozen v1.0 payload reader: version u8 + max_frame u32, tail
	// ignored (the unknown-field rule in PROTOCOL.md §3).
	if len(f.Payload) < 5 {
		t.Fatalf("payload too short: %d", len(f.Payload))
	}
	if v := f.Payload[0]; v != 1 {
		t.Fatalf("legacy version read = %d", v)
	}
	if mf := binary.BigEndian.Uint32(f.Payload[1:5]); mf != 1<<20 {
		t.Fatalf("legacy max_frame read = %d", mf)
	}
}

// TestHelloMetaNonCanonical pins the rejects that keep the encoding
// one-to-one: a present-but-empty section, unsorted or duplicate
// keys, and empty keys are corruption, not alternate spellings.
func TestHelloMetaNonCanonical(t *testing.T) {
	base := AppendHello(nil, Hello{Version: 1, MaxFrame: 64})
	cases := map[string][]byte{
		"empty section":  append(append([]byte{}, base...), 0),
		"empty key":      append(append([]byte{}, base...), 1, 0, 1, 'x'),
		"unsorted keys":  append(append([]byte{}, base...), 2, 1, 'b', 0, 1, 'a', 0),
		"duplicate keys": append(append([]byte{}, base...), 2, 1, 'a', 0, 1, 'a', 0),
		"truncated pair": append(append([]byte{}, base...), 1, 3, 'a'),
	}
	for name, p := range cases {
		if _, err := DecodeHello(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestTenantTailRoundTrip pins the DETECT/VERDICT/STREAM tenant tag
// tails: absent encodes to the v1.0 bytes, present round-trips, and a
// present-but-empty tag is rejected as non-canonical.
func TestTenantTailRoundTrip(t *testing.T) {
	req := DetectRequest{
		DeadlineMs: 9,
		Programs:   []DetectProgram{{ID: "p", Windows: []trace.WindowCounts{goldenWindow(1)}}},
	}
	bare, err := AppendDetectRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	req.Tenant = "acme"
	tagged, err := AppendDetectRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tagged[:len(bare)], bare) {
		t.Fatal("tenant tag moved the base DETECT fields")
	}
	got, err := DecodeDetectRequest(tagged)
	if err != nil || got.Tenant != "acme" {
		t.Fatalf("tagged DETECT decode: tenant=%q err=%v", got.Tenant, err)
	}
	if _, err := DecodeDetectRequest(append(append([]byte{}, bare...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty tenant tag must be corrupt, got %v", err)
	}

	v := Verdict{Session: 1, Results: []VerdictResult{{ID: "p", Windows: 1, Attempts: 1}}, Tenant: "acme"}
	venc, err := AppendVerdict(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	vgot, err := DecodeVerdict(venc)
	if err != nil || vgot.Tenant != "acme" {
		t.Fatalf("tagged VERDICT decode: tenant=%q err=%v", vgot.Tenant, err)
	}
}

// TestStreamRequestRoundTrip pins the STREAM payload codec.
func TestStreamRequestRoundTrip(t *testing.T) {
	req := StreamRequest{
		StreamID: 42,
		Close:    true,
		Stride:   3,
		ID:       "collector",
		Windows:  []trace.WindowCounts{goldenWindow(1), goldenWindow(2)},
		Tenant:   "acme",
	}
	enc, err := AppendStreamRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := new(Arena).DecodeStream(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.StreamID != 42 || !got.Close || got.Stride != 3 || got.ID != "collector" ||
		len(got.Windows) != 2 || got.Tenant != "acme" {
		t.Fatalf("round trip: %+v", got)
	}
	re, err := AppendStreamRequest(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, enc) {
		t.Fatalf("re-encode not identity:\n got %x\nwant %x", re, enc)
	}
	// Reserved flag bits are corruption.
	bad := append([]byte{}, enc...)
	bad[4] |= 0x80
	if _, err := new(Arena).DecodeStream(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reserved stream flags: got %v", err)
	}
}

// TestErrorRetryAfterTail pins the ERROR retry-hint tail: the v1.0
// two-field form still decodes, the hint round-trips, and an explicit
// zero hint is non-canonical.
func TestErrorRetryAfterTail(t *testing.T) {
	old := AppendErrorFrame(nil, ErrorFrame{Code: CodeOverloaded, Msg: "full"})
	if e, err := DecodeErrorFrame(old); err != nil || e.RetryAfterSec != 0 {
		t.Fatalf("v1.0 ERROR decode: %+v, %v", e, err)
	}
	hinted := AppendErrorFrame(nil, ErrorFrame{Code: CodeOverloaded, Msg: "full", RetryAfterSec: 2})
	if !bytes.Equal(hinted[:len(old)], old) {
		t.Fatal("retry hint moved the base ERROR fields")
	}
	e, err := DecodeErrorFrame(hinted)
	if err != nil || e.RetryAfterSec != 2 {
		t.Fatalf("hinted ERROR decode: %+v, %v", e, err)
	}
	zero := append(append([]byte{}, old...), 0, 0)
	if _, err := DecodeErrorFrame(zero); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero retry hint must be corrupt, got %v", err)
	}
}
