package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"shmd/internal/faults"
	"shmd/internal/isa"
	"shmd/internal/replay"
	"shmd/internal/trace"
)

// FuzzDetectRequestDecode drives arbitrary request bodies through the
// decoder. Invariants: never panic; every rejection carries a 4xx
// status (malformed input must map to a client error, not a 5xx or a
// zero status); every accepted request survives an encode/decode
// round-trip unchanged.
func FuzzDetectRequestDecode(f *testing.F) {
	// Seed with a fully valid request built from a real synthesized
	// trace, so the fuzzer starts inside the accepted grammar...
	prog, err := trace.NewProgram(trace.Trojan, 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	windows, err := prog.Trace(4, 256)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(DetectRequest{Programs: []ProgramJSON{
		{ID: "seed", Windows: EncodeWindows(windows)},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// ...and with representative rejections so each validation branch
	// is in the corpus.
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"programs":[]}`))
	f.Add([]byte(`{"programs":[{"windows":[]}]}`))
	f.Add([]byte(`{"programs":[{"windows":[{"opcode":[1,2]}]}]}`))
	f.Add([]byte(`{"programs":[{"windows":[{"opcode":[-1],"taken":5}]}]}`))
	f.Add([]byte(`{"programs":[{"id":"x","windows":[{"stride":[1,2,3]}]}]}`))
	f.Add(append(valid, []byte("{}")...))
	// Journal-shaped bodies: a calibration journal POSTed at the detect
	// endpoint by a confused client must be a clean 4xx, and its binary
	// framing (magic, big-endian length, CRC trailer) gives the mutator
	// structured non-JSON material to splice.
	f.Add([]byte("SHMDJNL1\x00\x00\x00\x10{\"entries\":[]}\xde\xad\xbe\xef"))
	f.Add([]byte(`{"programs":[{"id":"SHMDJNL1","windows":[{"opcode":[1]}]}]}`))
	// Deadline-header-shaped bodies: header text leaking into the body,
	// and header-like keys inside the JSON grammar.
	f.Add([]byte("X-Detect-Deadline-Ms: 250\r\n\r\n" + `{"programs":[]}`))
	f.Add([]byte(`{"X-Detect-Deadline-Ms":250,"programs":[{"windows":[{"opcode":[1]}]}]}`))
	// Trace-framed bodies: a decision-trace file POSTed at the detect
	// endpoint (an auditor piping the wrong file) must also be a clean
	// 4xx, and a genuine framed record seeds the mutator with the trace
	// grammar (magic, length prefix, varints, CRC trailer).
	var framed bytes.Buffer
	tw, err := replay.NewWriter(&framed)
	if err != nil {
		f.Fatal(err)
	}
	if err := tw.WriteRecord(replay.Record{
		Seed: 7, Rate: 0.1, DepthMV: 150, Threshold: 0.5,
		Malware: true, Score: 0.75, Confidence: 0.5,
		Draws:   faults.DrawLog{InitialGap: -1},
		Windows: windows[:1],
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add([]byte(replay.Magic))
	f.Add([]byte(`{"programs":[{"id":"SHMDTRC1","windows":[{"opcode":[1]}]}]}`))

	lim := Limits{MaxPrograms: 8, MaxWindows: 16, MinWindows: 1}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		programs, err := DecodeDetectRequest(bytes.NewReader(body), lim)
		if err != nil {
			// Rejections must map to client-error statuses.
			if code := StatusOf(err); code < 400 || code > 499 {
				t.Fatalf("decode error %q mapped to status %d", err, code)
			}
			return
		}
		// Accepted: the batch respects the limits...
		if len(programs) < 1 || len(programs) > lim.MaxPrograms {
			t.Fatalf("accepted batch of %d programs (limit %d)", len(programs), lim.MaxPrograms)
		}
		for _, p := range programs {
			if len(p.Windows) < lim.MinWindows || len(p.Windows) > lim.MaxWindows {
				t.Fatalf("accepted %d windows (limits %d..%d)", len(p.Windows), lim.MinWindows, lim.MaxWindows)
			}
			for _, wc := range p.Windows {
				if wc.Total() <= 0 {
					t.Fatalf("accepted empty window %+v", wc)
				}
				if wc.Taken < 0 || wc.Taken > wc.Branches() {
					t.Fatalf("accepted taken %d outside [0, %d]", wc.Taken, wc.Branches())
				}
			}
		}
		// ...and round-trips: re-encoding and re-decoding reproduces
		// the same window counts.
		req := DetectRequest{}
		for _, p := range programs {
			req.Programs = append(req.Programs, ProgramJSON{ID: p.ID, Windows: EncodeWindows(p.Windows)})
		}
		encoded, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeDetectRequest(bytes.NewReader(encoded), lim)
		if err != nil {
			t.Fatalf("accepted request failed round-trip: %v\nbody: %s", err, encoded)
		}
		if len(again) != len(programs) {
			t.Fatalf("round-trip program count %d != %d", len(again), len(programs))
		}
		for i := range programs {
			if again[i].ID != programs[i].ID {
				t.Fatalf("program %d id %q != %q", i, again[i].ID, programs[i].ID)
			}
			if len(again[i].Windows) != len(programs[i].Windows) {
				t.Fatalf("program %d window count changed", i)
			}
			for j := range programs[i].Windows {
				if again[i].Windows[j] != programs[i].Windows[j] {
					t.Fatalf("program %d window %d changed: %+v != %+v",
						i, j, again[i].Windows[j], programs[i].Windows[j])
				}
			}
		}
	})
}

// fastPathSeeds are bodies around the edge of the single-pass parser's
// subset: each either stays on the fast path or must reach the
// reference decoder, and both must agree. accept marks the ones the
// fast path takes itself.
func fastPathSeeds(t testing.TB) (bodies [][]byte, accept []bool) {
	windows := testWindows(t, trace.Trojan, 0, 2)
	ints := func(xs []int) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = strconv.Itoa(x)
		}
		return out
	}
	ops, strides := ints(windows[0].Opcode[:]), ints(windows[0].Stride[:])
	opcodeWith := func(i int, v string) string {
		o := append([]string(nil), ops...)
		o[i] = v
		return `"opcode":[` + strings.Join(o, ",") + `]`
	}
	opcode := `"opcode":[` + strings.Join(ops, ",") + `]`
	stride := `"stride":[` + strings.Join(strides, ",") + `]`
	full := opcode + `,"taken":` + strconv.Itoa(windows[0].Taken) + "," + stride
	body := func(id, window string) string {
		return `{"programs":[{"id":` + id + `,"windows":[{` + window + `}]}]}`
	}
	valid := detectBody(t, windows, windows[1:])
	pretty, err := json.MarshalIndent(json.RawMessage(valid), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	add := func(fast bool, b string) {
		bodies = append(bodies, []byte(b))
		accept = append(accept, fast)
	}
	add(true, string(valid))
	add(true, string(pretty))
	add(true, " \r\n"+body(`""`, full)+"\n\t ")
	add(true, body(`"a b/c~"`, opcode))
	add(true, body(`"s"`, `"stride":[],`+opcode))
	add(true, `{"programs":[{"windows":[{`+opcode+`}]}]}`)
	// keys: repeated, case-folded, unknown
	add(false, body(`"k"`, full+","+opcode))
	add(false, body(`"k"`, full+`,"stride":[]`))
	add(false, body(`"k"`, full+`,"taken":0`))
	add(false, `{"programs":[{"id":"a","id":"b","windows":[{`+opcode+`}]}]}`)
	add(false, `{"programs":[],"programs":[{"windows":[{`+opcode+`}]}]}`)
	add(false, `{"programs":[{"windows":[{`+full+`}],"windows":[{`+opcode+`}]}]}`)
	add(false, body(`"k"`, `"Opcode":[`+strings.Join(ops, ",")+`]`))
	add(false, strings.Replace(body(`"k"`, full), "programs", "PROGRAMS", 1))
	add(false, body(`"k"`, full+`,"extra":1`))
	add(false, `{"programs":[{"windows":[{`+opcode+`}]}],"extra":1}`)
	// IDs: escaped, non-ASCII, invalid UTF-8, control bytes, wrong type
	add(false, body(`"a\"b"`, full))
	add(false, body(`"\u00e9t\u00e9"`, full))
	add(false, body(`"été"`, full))
	add(false, body("\"\xff\xfe\"", full))
	add(false, body("\"a\tb\"", full))
	add(false, body(`7`, full))
	// values
	add(false, body(`null`, full))
	add(false, body(`"v"`, opcode+`,"taken":null`))
	add(false, body(`"v"`, opcode+`,"stride":null`))
	add(false, body(`"v"`, `"opcode":null`))
	add(false, `{"programs":[{"windows":null}]}`)
	add(false, `{"programs":null}`)
	add(false, body(`"v"`, opcodeWith(0, "-0")))
	add(false, body(`"v"`, opcode+`,"taken":-0`))
	add(false, body(`"v"`, opcodeWith(0, "1e2")))
	add(false, body(`"v"`, opcodeWith(0, "1.0")))
	add(false, body(`"v"`, opcodeWith(0, "0123")))
	add(false, body(`"v"`, opcodeWith(0, "12345678901234567890")))
	add(false, body(`"v"`, opcodeWith(0, "1234567890123456")))
	add(false, body(`"v"`, opcodeWith(0, "999999999999999")))
	add(false, body(`"v"`, `"opcode":[`+strings.Join(ops, ",")+`,0]`))
	add(false, body(`"v"`, `"opcode":[`+strings.Join(ops[1:], ",")+`]`))
	add(false, body(`"v"`, opcode+`,"stride":[1,2]`))
	add(false, body(`"v"`, opcode+`,"taken":99999`))
	add(false, body(`"v"`, `"opcode":[`+strings.Repeat("0,", 63)+`0]`))
	add(false, `{"programs":[{"windows":[]}]}`)
	add(false, `{"programs":[]}`)
	add(false, `{}`)
	// framing
	add(false, "\xef\xbb\xbf"+string(valid))
	add(false, string(valid)+string(valid))
	add(false, string(valid)+"x")
	add(false, string(valid)+"\x00")
	add(false, string(valid[:len(valid)-1]))
	add(false, `{"programs":[{"windows":[{`+opcode+`},]}]}`)
	add(false, "")
	return bodies, accept
}

// TestDecodeFastPathSubset pins which seed bodies the single-pass
// parser takes itself: the common encodings must stay on it (or the
// gain is silently lost), and each listed edge case must fall back.
func TestDecodeFastPathSubset(t *testing.T) {
	lim := Limits{}.withDefaults()
	bodies, accept := fastPathSeeds(t)
	for i, body := range bodies {
		s := &decodeScratch{body: body}
		if _, ok := s.parse(lim); ok != accept[i] {
			t.Errorf("fast path accepted=%v, want %v: %q", ok, accept[i], body)
		}
	}
}

// FuzzDetectRequestFastPath holds DecodeDetectRequest to the
// encoding/json reference: for every body both return identical
// programs (IDs and every window count), or the identical error text
// and status. Each body is also fed in one-byte reads, through a body
// limit that trips half-way, and with a transport error after its last
// byte, so the buffered read and its error replay match the reference
// reading the stream itself.
func FuzzDetectRequestFastPath(f *testing.F) {
	bodies, _ := fastPathSeeds(f)
	for _, b := range bodies {
		f.Add(b)
	}
	lim := Limits{MaxPrograms: 4, MaxWindows: 8, MinWindows: 1}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		readers := []struct {
			name string
			open func() io.Reader
		}{
			{"whole", func() io.Reader { return bytes.NewReader(body) }},
			{"one byte per read", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) }},
			{"limit half-way", func() io.Reader {
				return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(len(body)/2))
			}},
			{"cut off at the end", func() io.Reader {
				return io.MultiReader(bytes.NewReader(body), iotest.ErrReader(io.ErrUnexpectedEOF))
			}},
		}
		for _, rd := range readers {
			matchReference(t, rd.name, rd.open, lim)
		}
	})
}

// TestDecodeFastPathOneByteNeighbourhood compares the two decoders on
// every body one byte away from a small request the fast path accepts:
// each byte value inserted before, or written over, every position.
// That covers the whitespace, digit, string and key edges of the
// subset exhaustively rather than by the fuzzer's chance.
func TestDecodeFastPathOneByteNeighbourhood(t *testing.T) {
	if testing.Short() {
		t.Skip("about 100k decodes per decoder")
	}
	base := `{"programs":[{"id":"a","windows":[{"opcode":[1` + strings.Repeat(",0", isa.NumOpcodes-1) +
		`],"taken":0,"stride":[0,0,0,0,0,0,0,1]}]}]}`
	lim := Limits{}.withDefaults()
	if _, ok := (&decodeScratch{body: []byte(base)}).parse(lim); !ok {
		t.Fatalf("fast path rejects the base body %s", base)
	}
	body := make([]byte, 0, len(base)+1)
	open := func() io.Reader { return bytes.NewReader(body) }
	for i := 0; i <= len(base); i++ {
		for c := 0; c < 256; c++ {
			body = append(append(append(body[:0], base[:i]...), byte(c)), base[i:]...)
			matchReference(t, "insert", open, lim)
			if i < len(base) {
				body[i] = byte(c)
				body = append(body[:i+1], base[i+1:]...)
				matchReference(t, "overwrite", open, lim)
			}
		}
	}
}

// matchReference decodes the body open yields with DecodeDetectRequest
// and with the encoding/json reference, and fails unless both return
// identical programs or identical error text and status.
func matchReference(t *testing.T, name string, open func() io.Reader, lim Limits) {
	t.Helper()
	got, gotErr := DecodeDetectRequest(open(), lim)
	want, wantErr := DecodeDetectRequestStd(open(), lim)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v\nbody: %q", name, gotErr, wantErr, readAll(open()))
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() || StatusOf(gotErr) != StatusOf(wantErr) {
			t.Fatalf("%s: error %q (status %d), reference %q (status %d)", name,
				gotErr, StatusOf(gotErr), wantErr, StatusOf(wantErr))
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d programs, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || len(got[i].Windows) != len(want[i].Windows) {
			t.Fatalf("%s: program %d is %q with %d windows, reference %q with %d\nbody: %q", name, i,
				got[i].ID, len(got[i].Windows), want[i].ID, len(want[i].Windows), readAll(open()))
		}
		for w := range want[i].Windows {
			if got[i].Windows[w] != want[i].Windows[w] {
				t.Fatalf("%s: program %d window %d is %+v, reference %+v", name, i, w,
					got[i].Windows[w], want[i].Windows[w])
			}
		}
	}
}

// readAll returns what r yields up to its first error, for failure
// messages.
func readAll(r io.Reader) []byte {
	b, _ := io.ReadAll(r)
	return b
}

// TestStatusOf pins the error-to-status mapping the fuzz target relies
// on.
func TestStatusOf(t *testing.T) {
	if got := StatusOf(&RequestError{Status: 422, Msg: "x"}); got != 422 {
		t.Errorf("RequestError status = %d", got)
	}
	if got := StatusOf(&http.MaxBytesError{Limit: 1}); got != http.StatusRequestEntityTooLarge {
		t.Errorf("MaxBytesError status = %d", got)
	}
	if got := StatusOf(bytes.ErrTooLarge); got != http.StatusBadRequest {
		t.Errorf("generic error status = %d", got)
	}
}
