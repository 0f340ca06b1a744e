package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shmd/internal/trace"
)

// update regenerates the golden-frame corpus. The corpus is the wire
// compatibility contract: regenerating it is an intentional,
// reviewed protocol change, never a test-fixing reflex.
var update = flag.Bool("update", false, "rewrite the golden frame corpus")

// goldenWindow builds a deterministic window for the corpus.
func goldenWindow(salt int) trace.WindowCounts {
	var w trace.WindowCounts
	for i := range w.Opcode {
		w.Opcode[i] = (i*7+salt)%5 + 1
	}
	w.Taken = 2
	for i := range w.Stride {
		w.Stride[i] = (i + salt) % 3
	}
	return w
}

// goldenFrames enumerates every v1 frame type with a canonical sample
// value. Each entry becomes a byte-exact hex fixture under testdata/.
func goldenFrames(t *testing.T) map[string]Frame {
	t.Helper()
	detect, err := AppendDetectRequest(nil, DetectRequest{
		DeadlineMs: 250,
		Programs: []DetectProgram{
			{ID: "prog-0", Windows: []trace.WindowCounts{goldenWindow(1), goldenWindow(2)}},
			{Windows: []trace.WindowCounts{goldenWindow(3)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	verdict, err := AppendVerdict(nil, Verdict{
		Session: 2,
		Hedged:  true,
		Results: []VerdictResult{
			{ID: "prog-0", Malware: true, Score: 0.8125, Confidence: 0.625, Attempts: 1, Windows: 2},
			{Unprotected: true, Score: 0.25, Confidence: 0.5, Attempts: 3, Windows: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	detectTenant, err := AppendDetectRequest(nil, DetectRequest{
		DeadlineMs: 250,
		Programs:   []DetectProgram{{ID: "prog-0", Windows: []trace.WindowCounts{goldenWindow(1)}}},
		Tenant:     "acme",
	})
	if err != nil {
		t.Fatal(err)
	}
	verdictTenant, err := AppendVerdict(nil, Verdict{
		Session: 2,
		Results: []VerdictResult{{ID: "prog-0", Score: 0.8125, Confidence: 0.625, Attempts: 1, Windows: 1}},
		Tenant:  "acme",
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := AppendStreamRequest(nil, StreamRequest{
		StreamID: 7,
		Stride:   4,
		ID:       "collector-0",
		Windows:  []trace.WindowCounts{goldenWindow(1), goldenWindow(2)},
		Tenant:   "acme",
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Frame{
		"hello":          {Type: FrameHello, Payload: AppendHello(nil, Hello{Version: ProtoVersion, MaxFrame: DefaultMaxFramePayload})},
		"hello_meta":     {Type: FrameHello, Payload: AppendHello(nil, Hello{Version: ProtoVersion, MaxFrame: DefaultMaxFramePayload, Meta: map[string]string{MetaTenant: "acme", MetaClass: "realtime"}})},
		"detect":         {Type: FrameDetect, Corr: 1, Payload: detect},
		"detect_tenant":  {Type: FrameDetect, Corr: 1, Payload: detectTenant},
		"verdict":        {Type: FrameVerdict, Corr: 1, Payload: verdict},
		"verdict_tenant": {Type: FrameVerdict, Corr: 1, Payload: verdictTenant},
		"stream":         {Type: FrameStream, Corr: 6, Payload: stream},
		"error":          {Type: FrameError, Corr: 7, Payload: AppendErrorFrame(nil, ErrorFrame{Code: CodeOverloaded, Msg: "detection queue full"})},
		"error_retry":    {Type: FrameError, Corr: 7, Payload: AppendErrorFrame(nil, ErrorFrame{Code: CodeOverloaded, Msg: "detection queue full", RetryAfterSec: 2})},
		"ping":           {Type: FramePing, Corr: 9},
		"pong":           {Type: FramePong, Corr: 9},
		"goaway":         {Type: FrameGoAway, Payload: AppendGoAway(nil, GoAway{Code: 0, Msg: "draining"})},
		"health_req":     {Type: FrameHealthReq, Corr: 3},
		"health":         {Type: FrameHealth, Corr: 3, Payload: []byte(`{"status":"ok"}`)},
	}
}

// goldenPath is a fixture's on-disk location.
func goldenPath(name string) string {
	return filepath.Join("testdata", "frame_"+name+".hex")
}

// readGolden loads one hex fixture.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("golden fixture %s missing (run with -update to regenerate): %v", name, err)
	}
	data, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("golden fixture %s is not hex: %v", name, err)
	}
	return data
}

// readFrame reads the first frame of raw with readWireFrame, the
// reader behind Conn.ReadFrame, and reports the bytes it consumed.
func readFrame(raw []byte) (Frame, int, error) {
	r := bytes.NewReader(raw)
	f, err := readWireFrame(r, DefaultMaxFramePayload, new([FrameHeaderLen]byte))
	return f, len(raw) - r.Len(), err
}

// decodeGoAway decodes a GOAWAY payload. Endpoints only ever send
// GOAWAY (a reader acts on the frame type alone), so the decoder is a
// test helper that pins the canonical encoding.
func decodeGoAway(p []byte) (GoAway, error) {
	d := decoder{buf: p}
	g := GoAway{Code: d.u16("goaway code")}
	g.Msg = d.str16("goaway message")
	d.done()
	if d.err != nil {
		return GoAway{}, d.err
	}
	return g, nil
}

// TestGoldenFrameCorpus pins every v1 frame type byte-exactly: the
// committed fixture must decode, and re-encoding the decoded value
// must reproduce the fixture bit for bit. Any accidental wire change
// fails here loudly.
func TestGoldenFrameCorpus(t *testing.T) {
	frames := goldenFrames(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for name, f := range frames {
			enc := hex.EncodeToString(AppendFrame(nil, f)) + "\n"
			if err := os.WriteFile(goldenPath(name), []byte(enc), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The unknown-type fixture: a future frame type that v1 must
		// skip with a warning, never treat as fatal.
		unknown := AppendFrame(nil, Frame{Type: 0x7F, Corr: 5, Payload: []byte("future frame")})
		if err := os.WriteFile(goldenPath("unknown"), []byte(hex.EncodeToString(unknown)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for name, want := range frames {
		t.Run(name, func(t *testing.T) {
			raw := readGolden(t, name)
			// The in-memory sample must encode to the committed bytes.
			if enc := AppendFrame(nil, want); !bytes.Equal(enc, raw) {
				t.Fatalf("encoding drifted from committed fixture:\n got %x\nwant %x", enc, raw)
			}
			f, n, err := readFrame(raw)
			if err != nil {
				t.Fatalf("decoding committed fixture: %v", err)
			}
			if n != len(raw) {
				t.Fatalf("consumed %d of %d fixture bytes", n, len(raw))
			}
			// Decode the payload with its typed codec and re-encode: the
			// canonical encoding must round-trip byte-exactly.
			reenc := reencodePayload(t, f)
			if !bytes.Equal(AppendFrame(nil, Frame{Type: f.Type, Corr: f.Corr, Payload: reenc}), raw) {
				t.Fatalf("payload re-encode drifted:\n got %x\nwant %x", reenc, f.Payload)
			}
		})
	}
}

// reencodePayload decodes f's payload with the typed codec for its
// frame type and re-encodes it canonically.
func reencodePayload(t *testing.T, f Frame) []byte {
	t.Helper()
	switch f.Type {
	case FrameDetect:
		req, err := DecodeDetectRequest(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		out, err := AppendDetectRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		return out
	case FrameVerdict:
		v, err := DecodeVerdict(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		out, err := AppendVerdict(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return out
	case FrameError:
		e, err := DecodeErrorFrame(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return AppendErrorFrame(nil, e)
	case FrameHello:
		h, err := DecodeHello(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return AppendHello(nil, h)
	case FrameGoAway:
		g, err := decodeGoAway(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return AppendGoAway(nil, g)
	case FrameStream:
		s, err := new(Arena).DecodeStream(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		out, err := AppendStreamRequest(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		return out
	default:
		// PING/PONG/HEALTH_REQ are empty; HEALTH is opaque JSON.
		return f.Payload
	}
}

// TestGoldenUnknownFrameSkips pins the forward-compatibility
// behavior: a structurally valid frame of an unknown type decodes
// fine (so a reader can skip it) and reports Known() == false — the
// serving layer's contract is skip-with-warning, not
// kill-connection.
func TestGoldenUnknownFrameSkips(t *testing.T) {
	raw := readGolden(t, "unknown")
	// A stream carrying [unknown, ping] must deliver the ping after
	// the unknown frame is skipped.
	stream := append(append([]byte{}, raw...), AppendFrame(nil, Frame{Type: FramePing, Corr: 11})...)
	r := bytes.NewReader(stream)
	var hdr [FrameHeaderLen]byte
	first, err := readWireFrame(r, DefaultMaxFramePayload, &hdr)
	if err != nil {
		t.Fatalf("unknown frame type must still decode structurally: %v", err)
	}
	if n := len(stream) - r.Len(); n != len(raw) {
		t.Fatalf("consumed %d of %d bytes", n, len(raw))
	}
	if first.Type.Known() {
		t.Fatalf("fixture type %v unexpectedly known to v1", first.Type)
	}
	second, err := readWireFrame(r, DefaultMaxFramePayload, &hdr)
	if err != nil || second.Type != FramePing || second.Corr != 11 {
		t.Fatalf("second frame after skip: %+v, %v", second, err)
	}
}

// TestGoldenCorpusMutationsFailTyped flips every byte of every
// fixture and asserts the decoder reports a typed error — never a
// panic, never a silent success (CRC32 catches every single-byte
// mutation).
func TestGoldenCorpusMutationsFailTyped(t *testing.T) {
	names := make([]string, 0)
	for name := range goldenFrames(t) {
		names = append(names, name)
	}
	names = append(names, "unknown")
	for _, name := range names {
		raw := readGolden(t, name)
		for i := range raw {
			for _, flip := range []byte{0x01, 0x80} {
				mut := append([]byte{}, raw...)
				mut[i] ^= flip
				f, _, err := readFrame(mut)
				if err == nil {
					t.Fatalf("%s: byte %d ^ %#x decoded silently to %+v", name, i, flip, f)
				}
				var tooBig *TooLargeError
				if !errors.Is(err, ErrCorrupt) && !errors.As(err, &tooBig) {
					t.Fatalf("%s: byte %d ^ %#x: untyped error %v", name, i, flip, err)
				}
			}
		}
	}
}

// TestPreambleVersionSkew pins version negotiation at the preamble:
// good magic with a future version is readable (the caller decides
// how to answer), bad magic is corruption.
func TestPreambleVersionSkew(t *testing.T) {
	v, err := ReadPreamble(bytes.NewReader(AppendPreamble(nil, 2)))
	if err != nil || v != 2 {
		t.Fatalf("future version preamble: v=%d err=%v", v, err)
	}
	if _, err := ReadPreamble(strings.NewReader("SHMDJNL1\x01")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong magic: %v", err)
	}
	if _, err := ReadPreamble(strings.NewReader("SHMD")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated preamble: %v", err)
	}
}

// TestFrameTypeStrings keeps the log vocabulary stable.
func TestFrameTypeStrings(t *testing.T) {
	if s := FrameDetect.String(); s != "DETECT" {
		t.Fatalf("FrameDetect = %q", s)
	}
	if s := FrameType(0x7F).String(); s != fmt.Sprintf("wire.FrameType(0x%02x)", 0x7F) {
		t.Fatalf("unknown type = %q", s)
	}
}
