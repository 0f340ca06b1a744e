package replay

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"shmd/internal/fann"
	"shmd/internal/faults"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/trace"
)

// testConfidence mirrors the serving layer's score→confidence mapping
// (margin relative to the threshold, clamped to [0,1]).
func testConfidence(score, threshold float64, malware bool) float64 {
	var c float64
	if malware {
		c = (score - threshold) / (1 - threshold)
	} else {
		c = (threshold - score) / threshold
	}
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// synthWindows builds deterministic synthetic trace windows.
func synthWindows(r *rand.Rand, n int) []trace.WindowCounts {
	ws := make([]trace.WindowCounts, n)
	for i := range ws {
		for op := range ws[i].Opcode {
			ws[i].Opcode[op] = r.Intn(50)
		}
		ws[i].Taken = r.Intn(100)
		for b := range ws[i].Stride {
			ws[i].Stride[b] = r.Intn(30)
		}
	}
	return ws
}

// testModel builds a small untrained HMD (weights are random but
// deterministic; replay only needs a fixed model, not an accurate one).
func testModel(t testing.TB) *hmd.HMD {
	t.Helper()
	net, err := fann.New(fann.Config{
		Layers: []int{64, 4, 1},
		Hidden: fann.SigmoidSymmetric,
		Output: fann.Sigmoid,
		Seed:   99,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hmd.FromNetwork(net, hmd.Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// recordDecision scores windows through a recording injector and
// packages the decision as a trace record, exactly as the serving
// sink does.
func recordDecision(t *testing.T, h *hmd.HMD, rate float64, seed uint64, windows []trace.WindowCounts) Record {
	t.Helper()
	inj, err := faults.NewInjector(rate, nil, rng.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return recordOn(t, h, inj, rate, seed, 0, windows)
}

// recordOn is recordDecision on a given injector, whose stream first
// runs warm multiplications, so the recording starts mid-stream when
// warm > 0.
func recordOn(t *testing.T, h *hmd.HMD, inj *faults.Injector, rate float64, seed uint64, warm int, windows []trace.WindowCounts) Record {
	t.Helper()
	for range warm {
		inj.Mul(3, 5)
	}
	var log faults.DrawLog
	inj.StartRecord(&log)
	det := h.WithFreshBuffers()
	dec := det.DecideFromScores(det.ScoreWindowsUnit(inj, windows))
	inj.StopRecord()
	return Record{
		Seed:       seed,
		Slot:       1,
		Gen:        2,
		Rate:       rate,
		DepthMV:    130,
		Threshold:  h.Config().Threshold,
		Malware:    dec.Malware,
		Score:      dec.Score,
		Confidence: testConfidence(dec.Score, h.Config().Threshold, dec.Malware),
		Draws:      cloneLog(log),
		Windows:    windows,
	}
}

// cloneLog deep-copies a draw log, so a record does not share the
// slices an injector appends to.
func cloneLog(l faults.DrawLog) faults.DrawLog {
	c := faults.DrawLog{InitialGap: l.InitialGap}
	c.Gaps = append(c.Gaps, l.Gaps...)
	c.Bits = append(c.Bits, l.Bits...)
	return c
}

func TestRecordRoundTrip(t *testing.T) {
	h := testModel(t)
	r := rng.NewRand(3)
	recs := []Record{
		recordDecision(t, h, 0.5, 11, synthWindows(r, 6)),
		recordDecision(t, h, 0.0, 12, synthWindows(r, 1)),
		{Seed: 1, Rate: 0.1, DepthMV: 1, Threshold: 0.5, Unprotected: true,
			Score: 0.25, Confidence: 0.5, Draws: faults.DrawLog{InitialGap: -1}},
	}
	for i, rec := range recs {
		payload, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(rec), normalize(got)) {
			t.Fatalf("record %d: round trip mismatch:\n in: %+v\nout: %+v", i, rec, got)
		}
	}
}

// TestTenantTailCompat pins the tenant field's compatibility contract:
// a tenant-tagged record round-trips, an untagged record encodes
// byte-identically to the pre-tenant format (so old traces decode
// unchanged with Tenant == ""), and the malformed tails are rejected.
func TestTenantTailCompat(t *testing.T) {
	h := testModel(t)
	r := rng.NewRand(7)
	rec := recordDecision(t, h, 0.5, 21, synthWindows(r, 3))

	legacy, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	rec.Tenant = "acme-corp"
	tagged, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	// The tagged encoding is the legacy encoding plus a strictly
	// appended tail: nothing before the tail moved.
	if !bytes.HasPrefix(tagged, legacy) {
		t.Fatal("tenant tail moved earlier fields")
	}
	got, err := DecodeRecord(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tenant != "acme-corp" {
		t.Fatalf("tenant = %q, want acme-corp", got.Tenant)
	}
	// A pre-tenant payload decodes with the zero tenant.
	got, err = DecodeRecord(legacy)
	if err != nil {
		t.Fatalf("legacy payload: %v", err)
	}
	if got.Tenant != "" {
		t.Fatalf("legacy tenant = %q, want empty", got.Tenant)
	}
	// An explicit empty tail is never emitted, so it is corrupt.
	if _, err := DecodeRecord(append(append([]byte(nil), legacy...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty tenant tail: err = %v, want ErrCorrupt", err)
	}
	// A truncated tail is corrupt.
	if _, err := DecodeRecord(tagged[:len(tagged)-2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated tenant tail: err = %v, want ErrCorrupt", err)
	}
	// An oversized tenant refuses to encode.
	rec.Tenant = string(make([]byte, maxTenantLen+1))
	if _, err := EncodeRecord(nil, rec); err == nil {
		t.Fatal("oversized tenant encoded")
	}
}

// TestModelVersionTailCompat pins the model-version column's
// compatibility contract: the field rides a zero-tagged tail appended
// after the (optional) tenant tail, version-0 records encode
// byte-identically to the pre-registry format, and malformed tails
// are rejected.
func TestModelVersionTailCompat(t *testing.T) {
	h := testModel(t)
	r := rng.NewRand(9)
	rec := recordDecision(t, h, 0.5, 31, synthWindows(r, 3))

	legacy, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	rec.ModelVersion = 7
	versioned, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(versioned, legacy) {
		t.Fatal("model-version tail moved earlier fields")
	}
	got, err := DecodeRecord(versioned)
	if err != nil {
		t.Fatal(err)
	}
	if got.ModelVersion != 7 {
		t.Fatalf("model version = %d, want 7", got.ModelVersion)
	}
	// Version 0 is the omitted encoding: legacy payloads decode with 0.
	got, err = DecodeRecord(legacy)
	if err != nil {
		t.Fatalf("legacy payload: %v", err)
	}
	if got.ModelVersion != 0 {
		t.Fatalf("legacy model version = %d, want 0", got.ModelVersion)
	}

	// Both tails together: tenant first, model version last.
	rec.Tenant = "acme-corp"
	both, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeRecord(both)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tenant != "acme-corp" || got.ModelVersion != 7 {
		t.Fatalf("both tails: tenant=%q version=%d", got.Tenant, got.ModelVersion)
	}

	// A zero tag with nothing after it is truncated, not ambiguous.
	if _, err := DecodeRecord(append(append([]byte(nil), legacy...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bare zero tag: err = %v, want ErrCorrupt", err)
	}
	// An explicit version 0 in the tail is never emitted, so it is
	// corrupt rather than a second spelling of "no version".
	if _, err := DecodeRecord(append(append([]byte(nil), legacy...), 0, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("explicit zero version: err = %v, want ErrCorrupt", err)
	}
	// Trailing bytes after the version tail are corrupt.
	if _, err := DecodeRecord(append(append([]byte(nil), versioned...), 1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes after version tail: err = %v, want ErrCorrupt", err)
	}
}

// normalize maps empty slices to nil so DeepEqual compares content.
func normalize(r Record) Record {
	if len(r.Draws.Gaps) == 0 {
		r.Draws.Gaps = nil
	}
	if len(r.Draws.Bits) == 0 {
		r.Draws.Bits = nil
	}
	if len(r.Windows) == 0 {
		r.Windows = nil
	}
	return r
}

func TestWriterReaderStream(t *testing.T) {
	h := testModel(t)
	r := rng.NewRand(5)
	var recs []Record
	for i := 0; i < 5; i++ {
		recs = append(recs, recordDecision(t, h, 0.3, uint64(20+i), synthWindows(r, 3)))
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(recs[i]), normalize(got)) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("end of trace: got %v, want io.EOF", err)
	}
}

func TestCorruptTraces(t *testing.T) {
	h := testModel(t)
	rec := recordDecision(t, h, 0.5, 31, synthWindows(rng.NewRand(9), 4))
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.WriteRecord(rec); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(name string, f func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			data := f(append([]byte(nil), valid...))
			rd, err := NewReader(bytes.NewReader(data))
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("reader error %v does not wrap ErrCorrupt", err)
				}
				return
			}
			for {
				_, err := rd.Next()
				if err == nil {
					continue
				}
				if err == io.EOF {
					t.Fatal("corrupt trace read cleanly to EOF")
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error %v does not wrap ErrCorrupt", err)
				}
				return
			}
		})
	}

	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("empty file", func(b []byte) []byte { return nil })
	mutate("truncated length", func(b []byte) []byte { return b[:len(Magic)+2] })
	mutate("truncated payload", func(b []byte) []byte { return b[:len(Magic)+10] })
	mutate("missing checksum", func(b []byte) []byte { return b[:len(b)-2] })
	mutate("flipped payload byte", func(b []byte) []byte { b[len(Magic)+6] ^= 1; return b })
	mutate("flipped checksum", func(b []byte) []byte { b[len(b)-1] ^= 1; return b })
	mutate("huge length frame", func(b []byte) []byte {
		b[len(Magic)] = 0xff
		b[len(Magic)+1] = 0xff
		b[len(Magic)+2] = 0xff
		b[len(Magic)+3] = 0xff
		return b
	})
	mutate("trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) })
}

func TestEncodeRejectsInvalid(t *testing.T) {
	ok := Record{Rate: 0.1, DepthMV: 100, Threshold: 0.5, Score: 0.5, Confidence: 0,
		Draws: faults.DrawLog{InitialGap: -1}}
	bad := []func(*Record){
		func(r *Record) { r.Threshold = 0 },
		func(r *Record) { r.Threshold = 1 },
		func(r *Record) { r.Rate = -0.1 },
		func(r *Record) { r.Rate = math.NaN() },
		func(r *Record) { r.Score = 1.5 },
		func(r *Record) { r.Confidence = -1 },
		func(r *Record) { r.DepthMV = 20000 },
		func(r *Record) { r.Slot = -1 },
		func(r *Record) { r.Draws.InitialGap = -2 },
		func(r *Record) { r.Draws.Gaps = []int64{-1} },
		func(r *Record) { r.Draws.Gaps = []int64{1}; r.Draws.Bits = []uint8{2} },
		func(r *Record) { r.Draws.Bits = []uint8{14, 15} }, // more bits than gaps+1
	}
	if _, err := EncodeRecord(nil, ok); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	for i, f := range bad {
		r := ok
		r.Draws = cloneLog(ok.Draws)
		f(&r)
		if _, err := EncodeRecord(nil, r); err == nil {
			t.Errorf("mutation %d: invalid record encoded", i)
		}
	}
}

func TestReplayVerify(t *testing.T) {
	h := testModel(t)
	r := rng.NewRand(17)
	for _, rate := range []float64{0, 0.1, 0.5, 1.0} {
		rec := recordDecision(t, h, rate, 40+uint64(rate*10), synthWindows(r, 8))
		if err := Verify(h, rec, testConfidence); err != nil {
			t.Fatalf("rate %v: faithful record failed verification: %v", rate, err)
		}
	}

	// An unprotected (exact-unit) decision replays through the same path.
	windows := synthWindows(r, 4)
	det := h.WithFreshBuffers()
	dec := det.DetectProgram(windows)
	unprot := Record{
		Seed: 7, Rate: 0, DepthMV: 0, Threshold: h.Config().Threshold,
		Malware: dec.Malware, Unprotected: true, Score: dec.Score,
		Confidence: testConfidence(dec.Score, h.Config().Threshold, dec.Malware),
		Draws:      faults.DrawLog{InitialGap: -1}, Windows: windows,
	}
	if err := Verify(h, unprot, testConfidence); err != nil {
		t.Fatalf("unprotected record failed verification: %v", err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	h := testModel(t)
	rec := recordDecision(t, h, 0.5, 53, synthWindows(rng.NewRand(21), 8))
	if rec.Draws.Faults() == 0 {
		t.Fatal("fixture recorded no faults")
	}
	if err := Verify(h, rec, testConfidence); err != nil {
		t.Fatal(err)
	}

	tampered := []struct {
		name string
		f    func(*Record)
	}{
		{"score", func(r *Record) { r.Score = math.Nextafter(r.Score, 1) }},
		{"confidence", func(r *Record) { r.Confidence = math.Nextafter(r.Confidence, 1) }},
		{"fault bit", func(r *Record) { r.Draws.Bits[0] ^= 0x20 }},
		{"gap", func(r *Record) { r.Draws.Gaps[0] += 3 }},
		{"threshold", func(r *Record) { r.Threshold = 0.6 }},
		{"extra window", func(r *Record) { r.Windows = append(r.Windows, r.Windows[0]) }},
		{"unprotected with faults", func(r *Record) { r.Unprotected = true }},
	}
	for _, tc := range tampered {
		r := rec
		r.Draws = cloneLog(rec.Draws)
		r.Windows = append([]trace.WindowCounts(nil), rec.Windows...)
		tc.f(&r)
		if err := Verify(h, r, testConfidence); err == nil {
			t.Errorf("%s tampering passed verification", tc.name)
		}
	}
}

func TestSinkDropsWhenFull(t *testing.T) {
	// A sink whose drain goroutine never runs: offers beyond the ring
	// capacity must be dropped and counted, never block.
	s := &Sink{ch: make(chan Record, 2), done: make(chan struct{})}
	rec := Record{Rate: 0.1, DepthMV: 1, Threshold: 0.5, Score: 0.5,
		Draws: faults.DrawLog{InitialGap: -1}}
	if !s.Record(rec) || !s.Record(rec) {
		t.Fatal("ring rejected records below capacity")
	}
	for i := 0; i < 3; i++ {
		if s.Record(rec) {
			t.Fatal("full ring accepted a record")
		}
	}
	if s.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", s.Dropped())
	}
}

func TestSinkEndToEnd(t *testing.T) {
	h := testModel(t)
	r := rng.NewRand(29)
	path := filepath.Join(t.TempDir(), "trace.bin")
	s, err := OpenSink(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 4; i++ {
		rec := recordDecision(t, h, 0.4, uint64(60+i), synthWindows(r, 2))
		recs = append(recs, rec)
		s.Record(rec)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Written()+s.Dropped() != 4 {
		t.Fatalf("written %d + dropped %d != 4", s.Written(), s.Dropped())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		got, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalize(recs[n]), normalize(got)) {
			t.Fatalf("record %d mismatch", n)
		}
		if err := Verify(h, got, testConfidence); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		n++
	}
	if uint64(n) != s.Written() {
		t.Fatalf("read %d records, sink wrote %d", n, s.Written())
	}
}

func TestReplayValidation(t *testing.T) {
	h := testModel(t)
	rec := Record{Threshold: 0.25, Draws: faults.DrawLog{InitialGap: -1}}
	if _, _, err := Replay(h, rec, testConfidence); err == nil {
		t.Error("threshold mismatch accepted")
	}
	rec.Threshold = h.Config().Threshold
	if _, _, err := Replay(h, rec, testConfidence); err == nil {
		t.Error("empty windows accepted")
	}
}
