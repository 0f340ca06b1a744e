package replay

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"

	"shmd/internal/faults"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/trace"
)

// goldenTrace is the committed replay fixture. It was written once
// with Writer from goldenRecords and is never regenerated: it pins the
// DrawLog format and the draws every fault path records, so a change to
// how faults are drawn, recorded or replayed must reproduce it exactly.
const goldenTrace = "testdata/draws.trace"

// goldenRecords runs the detections behind goldenTrace and packages
// each as a trace record:
//   - supervised batches of one and of four at rate 0.3 on the
//     production lane sources, one trace longer than a 64-lane chunk;
//   - direct recordings on a production injector source below the
//     gap-table rate (the log-inversion regime) and at rate 1;
//   - recordings started mid-stream, after warm-up multiplications,
//     on a production source and on a plain *rand.Rand;
//   - an unprotected (exact-unit) decision with an empty log.
func goldenRecords(t *testing.T, h *hmd.HMD) []Record {
	t.Helper()
	r := rng.NewRand(61)
	var recs []Record

	sup := supervised(t, h, 5, false)
	for _, lens := range [][]int{{3}, {2, 70, 1, 5}, {4}} {
		traces := make([][]trace.WindowCounts, len(lens))
		for j, n := range lens {
			traces[j] = synthWindows(r, n)
		}
		verdicts, logs, err := sup.DetectBatch(traces, true)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range verdicts {
			if v.Unprotected {
				t.Fatalf("supervised batch lane %d degraded on ideal hardware", j)
			}
			recs = append(recs, Record{
				Seed:       5,
				Rate:       sup.TargetRate(),
				DepthMV:    sup.Session().Depth(),
				Threshold:  h.Config().Threshold,
				Malware:    v.Malware,
				Score:      v.Score,
				Confidence: testConfidence(v.Score, h.Config().Threshold, v.Malware),
				Draws:      logs[j],
				Windows:    traces[j],
			})
		}
	}

	source := func(rate float64, seed uint64) *faults.Injector {
		inj, err := faults.NewInjectorSource(rate, nil, rng.NewSource64(seed))
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	plain := func(rate float64, seed uint64) *faults.Injector {
		inj, err := faults.NewInjector(rate, nil, rng.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	recs = append(recs,
		recordOn(t, h, source(0.005, 71), 0.005, 71, 0, synthWindows(r, 9)),
		recordOn(t, h, source(1, 72), 1, 72, 0, synthWindows(r, 2)),
		recordOn(t, h, source(0.3, 73), 0.3, 73, 101, synthWindows(r, 6)),
		recordOn(t, h, plain(0.1, 74), 0.1, 74, 37, synthWindows(r, 5)),
	)

	windows := synthWindows(r, 3)
	dec := h.WithFreshBuffers().DetectProgram(windows)
	recs = append(recs, Record{
		Seed: 75, Threshold: h.Config().Threshold,
		Malware: dec.Malware, Unprotected: true, Score: dec.Score,
		Confidence: testConfidence(dec.Score, h.Config().Threshold, dec.Malware),
		Draws:      faults.DrawLog{InitialGap: -1}, Windows: windows,
	})
	return recs
}

// TestGoldenDrawsTrace replays the committed fixture and re-records it:
// every record must verify bit-identically, and re-running the same
// detections must record the same draw logs entry for entry and write
// the same bytes.
func TestGoldenDrawsTrace(t *testing.T) {
	h := testModel(t)
	data, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	committed := readAll(t, data)

	// The fixture covers what it claims to.
	var midStream, longTrace, generic, rateOne, unprotected bool
	for _, rec := range committed {
		midStream = midStream || rec.Draws.InitialGap >= 0
		longTrace = longTrace || len(rec.Windows) > 64
		generic = generic || (rec.Rate > 0 && rec.Rate < 1.0/128 && rec.Draws.Faults() > 0)
		rateOne = rateOne || rec.Rate == 1
		unprotected = unprotected || (rec.Unprotected && rec.Draws.Faults() == 0)
	}
	if !midStream || !longTrace || !generic || !rateOne || !unprotected {
		t.Fatalf("fixture coverage: mid-stream %v, >64 windows %v, log-inversion rate %v, rate 1 %v, unprotected %v",
			midStream, longTrace, generic, rateOne, unprotected)
	}

	for i, rec := range committed {
		if err := Verify(h, rec, testConfidence); err != nil {
			t.Errorf("record %d: %v", i, err)
		}
	}

	fresh := goldenRecords(t, h)
	if len(fresh) != len(committed) {
		t.Fatalf("re-recorded %d records, fixture holds %d", len(fresh), len(committed))
	}
	for i := range fresh {
		what := fmt.Sprintf("record %d", i)
		sameLog(t, what, fresh[i].Draws, committed[i].Draws)
		if !reflect.DeepEqual(normalize(fresh[i]), normalize(committed[i])) {
			t.Fatalf("%s: re-recorded %+v, fixture %+v", what, fresh[i], committed[i])
		}
	}
	if got := writeAll(t, fresh); !bytes.Equal(got, data) {
		t.Fatalf("re-recorded trace is %d bytes and differs from the %d-byte fixture", len(got), len(data))
	}
}

// readAll decodes every record of a trace file.
func readAll(t *testing.T, data []byte) []Record {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

// writeAll encodes records as one trace file.
func writeAll(t *testing.T, recs []Record) []byte {
	t.Helper()
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
	return buf.Bytes()
}
