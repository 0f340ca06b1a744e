package replay

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"testing"

	"shmd/internal/faults"
	"shmd/internal/trace"
)

// fuzzSeedRecords are structurally diverse valid records for the
// corpus.
func fuzzSeedRecords() []Record {
	w := trace.WindowCounts{Taken: 3}
	w.Opcode[0] = 5
	w.Opcode[63] = 1
	w.Stride[7] = 2
	return []Record{
		{Rate: 0.1, DepthMV: 130, Threshold: 0.5, Score: 0.25, Confidence: 0.5,
			Draws: faults.DrawLog{InitialGap: -1}},
		{Seed: 1 << 60, Slot: 3, Gen: 9, Rate: 1, DepthMV: 260, Threshold: 0.5,
			Malware: true, Score: 0.9, Confidence: 0.8,
			Draws:   faults.DrawLog{InitialGap: 4, Gaps: []int64{0, 7, 1 << 40}, Bits: []uint8{8, 62, 33}},
			Windows: []trace.WindowCounts{w, {}}},
		{Rate: 0, DepthMV: 0, Threshold: 0.5, Unprotected: true, Score: 0.1,
			Confidence: 0.8, Draws: faults.DrawLog{InitialGap: -1},
			Windows: []trace.WindowCounts{w}},
		{Rate: 0.2, DepthMV: 130, Threshold: 0.5, Score: 0.6, Malware: true,
			Confidence: 0.2, Draws: faults.DrawLog{InitialGap: -1},
			Windows: []trace.WindowCounts{w}, Tenant: "acme-corp"},
		{Rate: 0.2, DepthMV: 130, Threshold: 0.5, Score: 0.6, Malware: true,
			Confidence: 0.2, Draws: faults.DrawLog{InitialGap: -1},
			Windows: []trace.WindowCounts{w}, Tenant: "acme-corp", ModelVersion: 3},
		{Rate: 0.3, DepthMV: 130, Threshold: 0.5, Score: 0.4,
			Confidence: 0.4, Draws: faults.DrawLog{InitialGap: -1},
			Windows: []trace.WindowCounts{w}, ModelVersion: 1<<32 - 1},
	}
}

// FuzzTraceDecode drives the payload decoder and the framed reader
// with arbitrary bytes: neither may panic, every failure must be the
// typed ErrCorrupt (or clean io.EOF at a record boundary), and any
// accepted payload must re-encode and re-decode to the same record.
func FuzzTraceDecode(f *testing.F) {
	for _, rec := range fuzzSeedRecords() {
		payload, err := EncodeRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		var file bytes.Buffer
		w, err := NewWriter(&file)
		if err != nil {
			f.Fatal(err)
		}
		if err := w.WriteRecord(rec); err != nil {
			f.Fatal(err)
		}
		f.Add(file.Bytes())
	}
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Bare payload decode: success must round-trip bit-identically.
		if rec, err := DecodeRecord(data); err == nil {
			enc, err := EncodeRecord(nil, rec)
			if err != nil {
				t.Fatalf("accepted record failed to re-encode: %v", err)
			}
			again, err := DecodeRecord(enc)
			if err != nil {
				t.Fatalf("re-encoded record failed to decode: %v", err)
			}
			if !reflect.DeepEqual(rec, again) {
				t.Fatalf("round trip mismatch:\n first: %+v\nsecond: %+v", rec, again)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
		}

		// Framed reader over the same bytes: bounded iteration, typed
		// errors only.
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("reader error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		for i := 0; i < 1000; i++ {
			_, err := rd.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Next error %v does not wrap ErrCorrupt", err)
				}
				return
			}
		}
	})
}

// FuzzReplayDraws feeds every record DecodeRecord accepts through
// Replay on testModel (with the model's threshold, so the draw log is
// what gets exercised). A decoded trace is input from outside the
// program, so turning its log into span plans must never panic, and a
// log the replayed multiplications do not consume exactly — starved of
// bits, left undrained, or holding gaps too large for the pass — must
// surface as an error, never as a silent pass. logFits is the test's
// own walk of the log, sharing no code with the replayer.
func FuzzReplayDraws(f *testing.F) {
	data, err := os.ReadFile(goldenTrace)
	if err != nil {
		f.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		f.Fatal(err)
	}
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Fatal(err)
		}
		payload, err := EncodeRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// A gap at the int64 limit after a fault, as the last draw of a
	// consistent log and with a bit left over: planning must compare it
	// with the room left in the pass before adding it to a site.
	w := trace.WindowCounts{Taken: 1}
	seeds := fuzzSeedRecords()
	for _, bits := range [][]uint8{{14}, {14, 20}} {
		seeds = append(seeds, Record{Rate: 0.1, DepthMV: 130, Threshold: 0.5, Score: 0.5,
			Draws:   faults.DrawLog{InitialGap: 3, Gaps: []int64{math.MaxInt64}, Bits: bits},
			Windows: []trace.WindowCounts{w, w}})
	}
	for _, rec := range seeds {
		payload, err := EncodeRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	h := testModel(f)
	cfg := h.Config()
	muls := int64(h.Fixed().NumMuls())

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		rec.Threshold = cfg.Threshold
		_, _, err = Replay(h, rec, testConfidence)
		passes := int64(len(rec.Windows) / cfg.Period)
		var why string
		switch {
		case passes == 0:
			why = "no complete window"
		case rec.Unprotected && rec.Draws.Faults() != 0:
			why = "unprotected record with faults"
		case !logFits(rec.Draws, passes*muls):
			why = "log not consumed exactly"
		}
		if why != "" && err == nil {
			t.Fatalf("%s replayed clean (initial %d, %d gaps, %d bits, %d passes)",
				why, rec.Draws.InitialGap, len(rec.Draws.Gaps), len(rec.Draws.Bits), passes)
		}
		if why == "" && err != nil {
			t.Fatalf("consistent record refused: %v", err)
		}
	})
}

// logFits walks log over m multiplications the way the injector drew
// it — the pending (or first) gap counts fault-free multiplications
// down to a fault, which takes the next bit and then the next gap; a
// gap list that runs out leaves the rest fault-free — and reports
// whether the walk consumes every gap and bit with none missing.
func logFits(log faults.DrawLog, m int64) bool {
	gi, bi := 0, 0
	next := func() int64 {
		if gi == len(log.Gaps) {
			return math.MaxInt64
		}
		gi++
		return log.Gaps[gi-1]
	}
	gap := log.InitialGap
	if gap < 0 {
		gap = next()
	}
	for pos := int64(0); gap < m-pos; pos++ {
		pos += gap
		if bi == len(log.Bits) {
			return false
		}
		bi++
		gap = next()
	}
	return gi == len(log.Gaps) && bi == len(log.Bits)
}
