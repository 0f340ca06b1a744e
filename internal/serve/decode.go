// Package serve exposes a trained Stochastic-HMD as a long-running
// detection service: an HTTP/JSON API backed by a pool of supervised
// stochastic sessions. POST /v1/detect classifies batches of
// per-window instruction-category counts and returns decisions with
// per-decision confidence scores; GET /healthz reports supervisor
// health; GET /metrics exports Prometheus-style counters.
//
// The service is the online counterpart of the offline evaluation
// harness: the same enter → infer → exit undervolting protocol
// (core.Session), the same self-healing supervision (core.Supervisor),
// but driven by concurrent request traffic with bounded-queue
// backpressure instead of batch sweeps.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"shmd/internal/isa"
	"shmd/internal/trace"
	"shmd/internal/wire"
)

// Decode limits. The defaults bound worst-case request cost: a full
// batch of maximum-length programs stays well under a second of
// inference on one pooled session.
const (
	DefaultMaxBodyBytes = 4 << 20
	DefaultMaxPrograms  = 64
	DefaultMaxWindows   = 1024
	// maxCount bounds any single opcode/stride/taken count so window
	// totals can never overflow the int arithmetic in the feature
	// extractors.
	maxCount = 1 << 30
)

// Limits bounds what a single /v1/detect request may carry.
type Limits struct {
	// MaxBodyBytes caps the request body (enforced with
	// http.MaxBytesReader; overruns map to 413).
	MaxBodyBytes int64
	// MaxPrograms caps the programs per batch.
	MaxPrograms int
	// MaxWindows caps the windows per program.
	MaxWindows int
	// MinWindows is the fewest windows a program needs for one complete
	// detection period (set from the model's period by the server).
	MinWindows int
}

// withDefaults fills unset fields.
func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes == 0 {
		l.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if l.MaxPrograms == 0 {
		l.MaxPrograms = DefaultMaxPrograms
	}
	if l.MaxWindows == 0 {
		l.MaxWindows = DefaultMaxWindows
	}
	if l.MinWindows == 0 {
		l.MinWindows = 1
	}
	return l
}

// WindowJSON is the wire form of one decision window: the raw
// per-opcode instruction counts plus the branch and memory
// side-channels, exactly the trace.WindowCounts measurement a
// Pin-like collector produces.
type WindowJSON struct {
	// Opcode must hold exactly isa.NumOpcodes non-negative counts.
	Opcode []int `json:"opcode"`
	// Taken counts taken branches; it cannot exceed the branch
	// instructions present in Opcode.
	Taken int `json:"taken,omitempty"`
	// Stride is the optional memory-stride histogram: empty or exactly
	// trace.StrideBuckets non-negative counts.
	Stride []int `json:"stride,omitempty"`
}

// ProgramJSON is one program trace in a detection batch.
type ProgramJSON struct {
	// ID is an optional caller-assigned label echoed in the result.
	ID      string       `json:"id,omitempty"`
	Windows []WindowJSON `json:"windows"`
}

// DetectRequest is the POST /v1/detect body.
type DetectRequest struct {
	Programs []ProgramJSON `json:"programs"`
}

// DetectResult is one program's verdict.
type DetectResult struct {
	ID      string `json:"id,omitempty"`
	Malware bool   `json:"malware"`
	// Score is the mean window score behind the verdict.
	Score float64 `json:"score"`
	// Confidence is the decision margin normalized into [0, 1]: how far
	// the mean score sits from the decision threshold, relative to the
	// room on the decided side. Stochastic inference makes it an online
	// per-decision uncertainty signal — scores near the threshold are
	// exactly the ones the fault noise can flip.
	Confidence float64 `json:"confidence"`
	// Unprotected marks a degraded decision (nominal voltage, no
	// moving-target protection) served while the supervisor's breaker
	// is open.
	Unprotected bool `json:"unprotected,omitempty"`
	// Attempts is the number of protected cycles the supervisor tried.
	Attempts int `json:"attempts"`
	// Windows is the number of decision windows scored.
	Windows int `json:"windows"`
}

// DetectResponse is the POST /v1/detect reply.
type DetectResponse struct {
	Results []DetectResult `json:"results"`
	// Session is the pool slot that served the batch (observability).
	Session int `json:"session"`
	// Hedged marks a reply won by the hedge runner: the primary slot
	// was still working when a re-dispatch onto an idle slot finished
	// first.
	Hedged bool `json:"hedged,omitempty"`
	// Tenant echoes the resolved accounting identity the request was
	// served under (empty when tenancy is off).
	Tenant string `json:"tenant,omitempty"`
}

// DecodedProgram is a validated program ready for detection. It is
// the SHMDWIRE DETECT program, so a decoded frame's programs dispatch
// as they are.
type DecodedProgram = wire.DetectProgram

// RequestError is a client-side decode/validation failure carrying the
// HTTP status it maps to.
type RequestError struct {
	Status int
	Msg    string
}

// Error implements error.
func (e *RequestError) Error() string { return e.Msg }

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// StatusOf maps a decode error to its HTTP status: RequestErrors carry
// their own, body-size overruns are 413, anything else (malformed
// JSON, truncated body) is a 400.
func StatusOf(err error) int {
	var reqErr *RequestError
	if errors.As(err, &reqErr) {
		return reqErr.Status
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// DecodeDetectRequest parses and validates a /v1/detect body. Every
// rejection is a *RequestError (or a JSON syntax error) classifying to
// a 4xx via StatusOf; the decoder never panics on any input.
//
// The body is read whole and parsed in one pass straight into window
// counts. Anything outside that parser's subset, and every invalid
// request, goes to DecodeDetectRequestStd, so results and rejection
// messages are exactly the reference decoder's.
func DecodeDetectRequest(r io.Reader, lim Limits) ([]DecodedProgram, error) {
	lim = lim.withDefaults()
	s := decodePool.Get().(*decodeScratch)
	defer s.release()
	var err error
	s.body, err = readBody(r, s.body[:0])
	if err != nil {
		// Replay the bytes that arrived and then the same read error:
		// the reference decoder sees exactly the stream it would have
		// read itself, so an oversize body stays a 413 and a cut-off one
		// the same 400.
		return DecodeDetectRequestStd(io.MultiReader(bytes.NewReader(s.body), errReader{err}), lim)
	}
	if programs, ok := s.parse(lim); ok {
		return programs, nil
	}
	return DecodeDetectRequestStd(bytes.NewReader(s.body), lim)
}

// DecodeDetectRequestStd is the encoding/json reference decoder behind
// DecodeDetectRequest: the fallback for every body the single-pass
// parser does not accept, and the oracle the differential fuzz target
// and the A/B benchmark compare it against.
func DecodeDetectRequestStd(r io.Reader, lim Limits) ([]DecodedProgram, error) {
	lim = lim.withDefaults()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req DetectRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	// Exactly one JSON value: trailing garbage is a malformed request.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequest("request body holds more than one JSON value")
	}
	if len(req.Programs) == 0 {
		return nil, badRequest("empty batch: need at least one program")
	}
	if len(req.Programs) > lim.MaxPrograms {
		return nil, badRequest("batch of %d programs exceeds limit %d", len(req.Programs), lim.MaxPrograms)
	}
	out := make([]DecodedProgram, len(req.Programs))
	for i, p := range req.Programs {
		windows, err := decodeProgram(p, i, lim)
		if err != nil {
			return nil, err
		}
		out[i] = DecodedProgram{ID: p.ID, Windows: windows}
	}
	return out, nil
}

// decodeProgram validates one program's windows.
func decodeProgram(p ProgramJSON, idx int, lim Limits) ([]trace.WindowCounts, error) {
	if len(p.Windows) < lim.MinWindows {
		return nil, badRequest("program %d: %d windows, need at least %d for one detection period",
			idx, len(p.Windows), lim.MinWindows)
	}
	if len(p.Windows) > lim.MaxWindows {
		return nil, badRequest("program %d: %d windows exceeds limit %d", idx, len(p.Windows), lim.MaxWindows)
	}
	out := make([]trace.WindowCounts, len(p.Windows))
	for w, win := range p.Windows {
		wc, err := decodeWindow(win, idx, w)
		if err != nil {
			return nil, err
		}
		out[w] = wc
	}
	return out, nil
}

// decodeWindow validates one window's JSON shape, converts it to the
// internal measurement type, and applies the transport-independent
// semantic checks.
func decodeWindow(win WindowJSON, prog, idx int) (trace.WindowCounts, error) {
	var wc trace.WindowCounts
	if len(win.Opcode) != isa.NumOpcodes {
		return wc, badRequest("program %d window %d: %d opcode counts, want %d",
			prog, idx, len(win.Opcode), isa.NumOpcodes)
	}
	copy(wc.Opcode[:], win.Opcode)
	wc.Taken = win.Taken
	if len(win.Stride) != 0 && len(win.Stride) != trace.StrideBuckets {
		return wc, badRequest("program %d window %d: %d stride buckets, want 0 or %d",
			prog, idx, len(win.Stride), trace.StrideBuckets)
	}
	copy(wc.Stride[:], win.Stride)
	if err := validateWindowCounts(&wc, prog, idx); err != nil {
		return trace.WindowCounts{}, err
	}
	return wc, nil
}

// validateWindowCounts applies the semantic checks every transport
// shares — the JSON decoder after shape conversion, the binary wire
// path on already-structured measurements. Both transports therefore
// accept and reject exactly the same windows, which the cross-transport
// equivalence suite depends on.
func validateWindowCounts(wc *trace.WindowCounts, prog, idx int) error {
	total := 0
	for op, n := range wc.Opcode {
		if n < 0 || n > maxCount {
			return badRequest("program %d window %d: opcode %d count %d outside [0, %d]",
				prog, idx, op, n, maxCount)
		}
		total += n
	}
	if total == 0 {
		return badRequest("program %d window %d: empty window (all opcode counts zero)", prog, idx)
	}
	if total > maxCount {
		return badRequest("program %d window %d: window total %d exceeds %d", prog, idx, total, maxCount)
	}
	if wc.Taken < 0 {
		return badRequest("program %d window %d: negative taken-branch count %d", prog, idx, wc.Taken)
	}
	if branches := wc.Branches(); wc.Taken > branches {
		return badRequest("program %d window %d: %d taken branches but only %d branch instructions",
			prog, idx, wc.Taken, branches)
	}
	for b, n := range wc.Stride {
		if n < 0 || n > maxCount {
			return badRequest("program %d window %d: stride bucket %d count %d outside [0, %d]",
				prog, idx, b, n, maxCount)
		}
	}
	return nil
}

// ValidatePrograms applies the request-level semantic limits to
// already-structured programs — the binary transport's counterpart of
// DecodeDetectRequest. Every rejection is a *RequestError mapping to
// the same status the JSON decoder would have produced.
func ValidatePrograms(programs []DecodedProgram, lim Limits) error {
	lim = lim.withDefaults()
	if len(programs) == 0 {
		return badRequest("empty batch: need at least one program")
	}
	if len(programs) > lim.MaxPrograms {
		return badRequest("batch of %d programs exceeds limit %d", len(programs), lim.MaxPrograms)
	}
	for i := range programs {
		p := &programs[i]
		if len(p.Windows) < lim.MinWindows {
			return badRequest("program %d: %d windows, need at least %d for one detection period",
				i, len(p.Windows), lim.MinWindows)
		}
		if len(p.Windows) > lim.MaxWindows {
			return badRequest("program %d: %d windows exceeds limit %d", i, len(p.Windows), lim.MaxWindows)
		}
		for w := range p.Windows {
			if err := validateWindowCounts(&p.Windows[w], i, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// EncodeWindows converts internal window measurements back to the wire
// form (used by clients, tests, and the fuzz round-trip).
func EncodeWindows(windows []trace.WindowCounts) []WindowJSON {
	out := make([]WindowJSON, len(windows))
	for i, w := range windows {
		wj := WindowJSON{Opcode: make([]int, isa.NumOpcodes), Taken: w.Taken}
		copy(wj.Opcode, w.Opcode[:])
		wj.Stride = make([]int, trace.StrideBuckets)
		copy(wj.Stride, w.Stride[:])
		out[i] = wj
	}
	return out
}
