package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"shmd/internal/trace"
)

// fuzzSeedFrames returns encoded frames of every v1 type plus the
// adversarial variants the issue calls out: truncated, bit-flipped,
// oversized, and version-skewed bytes.
func fuzzSeedFrames(t interface{ Helper() }) [][]byte {
	t.Helper()
	detect, _ := AppendDetectRequest(nil, DetectRequest{
		DeadlineMs: 100,
		Programs:   []DetectProgram{{ID: "p", Windows: []trace.WindowCounts{goldenWindow(1)}}},
	})
	verdict, _ := AppendVerdict(nil, Verdict{Session: 1, Results: []VerdictResult{{ID: "p", Score: 0.5, Confidence: 1, Attempts: 1, Windows: 1}}})
	// v1.1 extension seeds: HELLO with the metadata section,
	// tenant-tagged DETECT/STREAM, ERROR with a retry hint.
	detectTenant, _ := AppendDetectRequest(nil, DetectRequest{
		DeadlineMs: 100,
		Programs:   []DetectProgram{{ID: "p", Windows: []trace.WindowCounts{goldenWindow(1)}}},
		Tenant:     "acme",
	})
	stream, _ := AppendStreamRequest(nil, StreamRequest{
		StreamID: 1, Stride: 2, ID: "s",
		Windows: []trace.WindowCounts{goldenWindow(2)},
		Tenant:  "acme",
	})
	frames := [][]byte{
		AppendFrame(nil, Frame{Type: FrameHello, Payload: AppendHello(nil, Hello{Version: 1, MaxFrame: 1 << 20})}),
		AppendFrame(nil, Frame{Type: FrameHello, Payload: AppendHello(nil, Hello{Version: 1, MaxFrame: 1 << 20, Meta: map[string]string{MetaClass: "batch", MetaTenant: "acme"}})}),
		AppendFrame(nil, Frame{Type: FrameDetect, Corr: 1, Payload: detect}),
		AppendFrame(nil, Frame{Type: FrameDetect, Corr: 6, Payload: detectTenant}),
		AppendFrame(nil, Frame{Type: FrameStream, Corr: 7, Payload: stream}),
		AppendFrame(nil, Frame{Type: FrameError, Corr: 8, Payload: AppendErrorFrame(nil, ErrorFrame{Code: CodeOverloaded, Msg: "queue full", RetryAfterSec: 2})}),
		AppendFrame(nil, Frame{Type: FrameVerdict, Corr: 1, Payload: verdict}),
		AppendFrame(nil, Frame{Type: FrameError, Corr: 2, Payload: AppendErrorFrame(nil, ErrorFrame{Code: CodeUnavailable, Msg: "draining"})}),
		AppendFrame(nil, Frame{Type: FramePing, Corr: 3}),
		AppendFrame(nil, Frame{Type: FramePong, Corr: 3}),
		AppendFrame(nil, Frame{Type: FrameGoAway, Payload: AppendGoAway(nil, GoAway{Msg: "bye"})}),
		AppendFrame(nil, Frame{Type: FrameHealthReq, Corr: 4}),
		AppendFrame(nil, Frame{Type: FrameHealth, Corr: 4, Payload: []byte(`{"status":"ok"}`)}),
		AppendFrame(nil, Frame{Type: 0x7F, Corr: 5, Payload: []byte("future")}),
	}
	seeds := append([][]byte{}, frames...)
	for _, f := range frames {
		// Truncated at an awkward boundary.
		seeds = append(seeds, f[:len(f)/2])
		// Bit-flipped mid-frame.
		flipped := append([]byte{}, f...)
		flipped[len(flipped)/2] ^= 0x10
		seeds = append(seeds, flipped)
	}
	// Oversized: a header whose length field dwarfs any real payload.
	huge := append([]byte{}, frames[1]...)
	huge[10], huge[11] = 0x7f, 0xff
	seeds = append(seeds,
		huge,
		// Version-skewed preambles where a frame should be.
		AppendPreamble(nil, ProtoVersion),
		AppendPreamble(nil, 2),
		AppendPreamble(nil, 0xff),
	)
	return seeds
}

// FuzzWireFrameDecode holds readWireFrame, the reader behind
// Conn.ReadFrame, to its contract on arbitrary bytes: it never panics,
// it fails only ErrCorrupt-family, with *TooLargeError, or with a
// clean io.EOF when no byte arrived, and a frame it reads re-encodes
// through AppendFrame to exactly the bytes consumed (identity). Typed
// payload decoders get the same treatment on whatever payload
// survives framing.
func FuzzWireFrameDecode(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := readFrame(data)
		if err != nil {
			var tooBig *TooLargeError
			if err == io.EOF {
				if len(data) != 0 {
					t.Fatalf("io.EOF with %d bytes unread", len(data))
				}
			} else if !errors.Is(err, ErrCorrupt) && !errors.As(err, &tooBig) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if enc := AppendFrame(nil, fr); !bytes.Equal(enc, data[:n]) {
			t.Fatalf("re-encode is not identity:\n got %x\nwant %x", enc, data[:n])
		}
		checkPayloadDecoder(t, fr)
	})
}

// checkPayloadDecoder runs the typed codec for fr's type; failures
// must wrap ErrCorrupt, successes must re-encode canonically.
func checkPayloadDecoder(t *testing.T, fr Frame) {
	t.Helper()
	assert := func(reenc []byte, err error) {
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v payload: untyped error %v", fr.Type, err)
			}
			return
		}
		if !bytes.Equal(reenc, fr.Payload) {
			t.Fatalf("%v payload re-encode is not identity:\n got %x\nwant %x", fr.Type, reenc, fr.Payload)
		}
	}
	switch fr.Type {
	case FrameDetect:
		req, err := DecodeDetectRequest(fr.Payload)
		if err != nil {
			assert(nil, err)
			return
		}
		enc, encErr := AppendDetectRequest(nil, req)
		if encErr != nil {
			t.Fatalf("decoded request failed to re-encode: %v", encErr)
		}
		assert(enc, nil)
	case FrameVerdict:
		v, err := DecodeVerdict(fr.Payload)
		if err != nil {
			assert(nil, err)
			return
		}
		enc, encErr := AppendVerdict(nil, v)
		if encErr != nil {
			t.Fatalf("decoded verdict failed to re-encode: %v", encErr)
		}
		assert(enc, nil)
	case FrameError:
		e, err := DecodeErrorFrame(fr.Payload)
		if err != nil {
			assert(nil, err)
			return
		}
		assert(AppendErrorFrame(nil, e), nil)
	case FrameHello:
		h, err := DecodeHello(fr.Payload)
		if err != nil {
			assert(nil, err)
			return
		}
		assert(AppendHello(nil, h), nil)
	case FrameGoAway:
		g, err := decodeGoAway(fr.Payload)
		if err != nil {
			assert(nil, err)
			return
		}
		assert(AppendGoAway(nil, g), nil)
	case FrameStream:
		s, err := new(Arena).DecodeStream(fr.Payload)
		if err != nil {
			assert(nil, err)
			return
		}
		enc, encErr := AppendStreamRequest(nil, s)
		if encErr != nil {
			t.Fatalf("decoded stream append failed to re-encode: %v", encErr)
		}
		assert(enc, nil)
	}
}

// FuzzDetectFrameRoundTrip drives the DETECT and VERDICT payload
// codecs directly with raw bytes: any payload that decodes must
// re-encode to the identical bytes (the encoding is canonical), and
// any rejection must be typed. This is the decode→encode dual of the
// construct→encode→decode tests.
func FuzzDetectFrameRoundTrip(f *testing.F) {
	detect, _ := AppendDetectRequest(nil, DetectRequest{
		DeadlineMs: 250,
		Programs: []DetectProgram{
			{ID: "prog-0", Windows: []trace.WindowCounts{goldenWindow(2), goldenWindow(3)}},
			{Windows: []trace.WindowCounts{goldenWindow(4)}},
		},
	})
	verdict, _ := AppendVerdict(nil, Verdict{
		Session: 3, Hedged: true,
		Results: []VerdictResult{{ID: "prog-0", Malware: true, Score: 0.75, Confidence: 0.5, Attempts: 2, Windows: 2}},
	})
	f.Add(detect)
	f.Add(verdict)
	f.Add([]byte{})
	trunc := detect[:len(detect)-5]
	f.Add(trunc)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeDetectRequest(data)
		if err == nil {
			enc, encErr := AppendDetectRequest(nil, req)
			if encErr != nil {
				t.Fatalf("decoded request failed to re-encode: %v", encErr)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("detect round trip not identity:\n got %x\nwant %x", enc, data)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped detect decode error: %v", err)
		}
		// Back to back through one arena, after and before the seed
		// payload, each decode must match a fresh one.
		var a Arena
		for _, p := range [][]byte{detect, data, detect} {
			got, gotErr := a.DecodeDetect(p)
			want, wantErr := DecodeDetectRequest(p)
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("arena decode = %+v (%v), fresh decode %+v (%v)", got, gotErr, want, wantErr)
			}
		}
		if v, err := DecodeVerdict(data); err == nil {
			enc, encErr := AppendVerdict(nil, v)
			if encErr != nil {
				t.Fatalf("decoded verdict failed to re-encode: %v", encErr)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("verdict round trip not identity:\n got %x\nwant %x", enc, data)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped verdict decode error: %v", err)
		}
	})
}

// FuzzDetectTenant holds the tenant-tail reader to the full decoder:
// on any payload DetectTenant and Arena.DecodeDetect accept and reject
// alike, and an accepted payload's tenant is the same from both.
func FuzzDetectTenant(f *testing.F) {
	windows := []trace.WindowCounts{goldenWindow(2), goldenWindow(3)}
	for _, req := range []DetectRequest{
		{DeadlineMs: 250, Programs: []DetectProgram{{ID: "prog-0", Windows: windows}, {Windows: windows[:1]}}},
		{Programs: []DetectProgram{{ID: "p", Windows: windows}}, Tenant: "acme"},
		{Programs: []DetectProgram{{}, {ID: "empty"}}, Tenant: "t"},
		{Tenant: "no-programs"},
	} {
		p, err := AppendDetectRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		f.Add(p[:len(p)-1])
		f.Add(append(p[:len(p):len(p)], 0))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tenant, err := DetectTenant(data)
		var a Arena
		req, decErr := a.DecodeDetect(data)
		if (err == nil) != (decErr == nil) {
			t.Fatalf("DetectTenant err %v, DecodeDetect err %v", err, decErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped tenant-tail error: %v", err)
			}
			return
		}
		if tenant != req.Tenant {
			t.Fatalf("DetectTenant = %q, DecodeDetect tenant %q", tenant, req.Tenant)
		}
	})
}
