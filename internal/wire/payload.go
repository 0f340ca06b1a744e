package wire

// SHMDWIRE v1 payload codecs: the bodies of DETECT, VERDICT, ERROR,
// HELLO, and GOAWAY frames. All integers are big-endian; float64
// values travel as their IEEE-754 bit patterns, so a verdict's score
// and confidence survive the wire bit-exactly — the property the
// cross-transport equivalence suite pins.
//
// Encoding is canonical: there is exactly one byte sequence for a
// given value (window stride histograms are always emitted, string
// lengths are exact), which is what lets the golden-frame corpus
// assert decode→re-encode byte identity. Every decode failure wraps
// ErrCorrupt; decoders bound every length they allocate for and never
// panic on any input — the frame fuzzers hold them to it.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"shmd/internal/isa"
	"shmd/internal/trace"
)

// Structural decode bounds. These cap what a decoder will allocate
// for; the serving layer applies its own (tighter, configurable)
// semantic limits on top.
const (
	// MaxPrograms bounds the programs in one DETECT frame.
	MaxPrograms = 4096
	// MaxWindows bounds the windows in one program.
	MaxWindows = 65535
	// MaxIDLen bounds a program id (u8 length prefix).
	MaxIDLen = 255
	// MaxMsgLen bounds an error / goaway message (u16 length prefix).
	MaxMsgLen = 65535
	// windowWireLen is the fixed encoded size of one window: taken +
	// opcode counts + stride buckets, 4 bytes each.
	windowWireLen = 4 * (1 + isa.NumOpcodes + trace.StrideBuckets)
	// maxWireCount bounds any single count on the wire (u32).
	maxWireCount = math.MaxUint32
	// MaxMetaPairs bounds the HELLO metadata section.
	MaxMetaPairs = 16
)

// Well-known HELLO metadata keys. Endpoints ignore keys they do not
// recognize.
const (
	// MetaTenant names the tenant the connection's traffic belongs to.
	MetaTenant = "tenant"
	// MetaClass is the tenant's advisory priority class
	// ("realtime"/"standard"/"batch") — routers use it to key brownout
	// shedding without a registry; backends always resolve the
	// authoritative class from their own registry.
	MetaClass = "class"
)

// DetectProgram is one program in a DETECT frame.
type DetectProgram struct {
	// ID is an optional caller-assigned label echoed in the verdict.
	ID string
	// Windows are the per-window instruction-count measurements.
	Windows []trace.WindowCounts
}

// DetectRequest is the DETECT frame payload.
type DetectRequest struct {
	// DeadlineMs bounds the detection server-side, in integer
	// milliseconds (0 = server default), mirroring the HTTP transport's
	// X-Detect-Deadline-Ms header.
	DeadlineMs uint32
	Programs   []DetectProgram
	// Tenant is the optional tenant tag (v1.1 extension tail, see
	// PROTOCOL.md §4): empty means "use the connection's HELLO tenant".
	// Carried in the payload so a router's shared upstream connections
	// relay it verbatim, untouched by pooling.
	Tenant string
}

// Deadline converts the millisecond field to a duration.
func (r DetectRequest) Deadline() time.Duration {
	return time.Duration(r.DeadlineMs) * time.Millisecond
}

// AppendDetectRequest appends the canonical encoding of req. It sizes
// the payload first and grows dst at most once. Encoding fails only on
// values the wire cannot carry (oversized ids or counts, too many
// programs or windows, negative counts).
func AppendDetectRequest(dst []byte, req DetectRequest) ([]byte, error) {
	if len(req.Programs) > MaxPrograms {
		return nil, fmt.Errorf("wire: %d programs exceeds %d", len(req.Programs), MaxPrograms)
	}
	size := 4 + 2
	for i := range req.Programs {
		p := &req.Programs[i]
		if len(p.ID) > MaxIDLen {
			return nil, fmt.Errorf("wire: program %d id is %d bytes, limit %d", i, len(p.ID), MaxIDLen)
		}
		if len(p.Windows) > MaxWindows {
			return nil, fmt.Errorf("wire: program %d has %d windows, limit %d", i, len(p.Windows), MaxWindows)
		}
		size += 1 + len(p.ID) + 2 + len(p.Windows)*windowWireLen
	}
	tail, err := tenantTailLen(req.Tenant)
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, size+tail)
	dst = binary.BigEndian.AppendUint32(dst, req.DeadlineMs)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Programs)))
	for i := range req.Programs {
		p := &req.Programs[i]
		dst = append(dst, byte(len(p.ID)))
		dst = append(dst, p.ID...)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Windows)))
		for w := range p.Windows {
			if dst, err = appendWindow(dst, &p.Windows[w], i, w); err != nil {
				return nil, err
			}
		}
	}
	return appendTenantTail(dst, req.Tenant), nil
}

// tenantTailLen validates the optional tenant tag tail and returns its
// encoded length: 0 when the tag is empty (the tail is omitted).
func tenantTailLen(tenant string) (int, error) {
	if tenant == "" {
		return 0, nil
	}
	if len(tenant) > MaxIDLen {
		return 0, fmt.Errorf("wire: tenant tag is %d bytes, limit %d", len(tenant), MaxIDLen)
	}
	return 1 + len(tenant), nil
}

// appendTenantTail appends the optional tenant tag tail, validated by
// tenantTailLen: omitted entirely when empty (canonical form), a str8
// otherwise.
func appendTenantTail(dst []byte, tenant string) []byte {
	if tenant == "" {
		return dst
	}
	dst = append(dst, byte(len(tenant)))
	return append(dst, tenant...)
}

// tenantTail decodes the optional tenant tag tail if any payload
// remains. A present-but-empty tag is non-canonical and rejected.
func (d *decoder) tenantTail() string {
	if d.err != nil || d.off == len(d.buf) {
		return ""
	}
	tenant := d.str8("tenant tag")
	if d.err == nil && tenant == "" {
		d.err = corrupt("empty tenant tag (omit the tail instead)")
	}
	return tenant
}

// appendWindow appends one window's fixed-size encoding into capacity
// the caller already reserved.
func appendWindow(dst []byte, w *trace.WindowCounts, prog, idx int) ([]byte, error) {
	if err := checkCount(w.Taken, prog, idx); err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(w.Taken))
	for _, n := range w.Opcode {
		if err := checkCount(n, prog, idx); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	}
	for _, n := range w.Stride {
		if err := checkCount(n, prog, idx); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	}
	return dst, nil
}

// checkCount refuses a window count the wire's u32 cannot carry.
func checkCount(n, prog, idx int) error {
	if n < 0 || n > maxWireCount {
		return fmt.Errorf("wire: program %d window %d: count %d outside [0, %d]", prog, idx, n, int64(maxWireCount))
	}
	return nil
}

// Arena is reusable decode storage for DETECT and STREAM payloads.
// A decode carves every window of the payload, in order, from one
// backing array, which the arena keeps for the next decode, and
// reuses the arena's program list; once grown to the largest payload
// it has seen, an arena decodes without allocating anything but
// program ids and tenant tags. What a decode returns aliases the arena
// and is valid until its next decode. The zero value is ready to use;
// an Arena is not safe for concurrent use.
type Arena struct {
	windows  []trace.WindowCounts
	programs []DetectProgram
	// used counts the windows carved by the current decode.
	used int
}

// reset starts a decode of p, reserving room for as many windows as
// p's length could carry (each is windowWireLen bytes on the wire).
func (a *Arena) reset(p []byte) {
	if bound := len(p) / windowWireLen; cap(a.windows) < bound {
		a.windows = make([]trace.WindowCounts, bound)
	}
	a.windows = a.windows[:cap(a.windows)]
	a.used = 0
}

// Clear zeroes what the last decode carved — its windows and program
// list — so none of one request's measurements survive into the
// arena's next use, and a reader that outlived its request reads empty
// windows, not another request's.
func (a *Arena) Clear() {
	clear(a.windows[:a.used])
	clear(a.programs[:cap(a.programs)])
	a.used = 0
}

// carve decodes the next n windows into the arena and returns them,
// capped so that appending to one program's windows never reaches the
// next. The caller checked that n windows' bytes remain.
func (a *Arena) carve(d *decoder, n int) []trace.WindowCounts {
	ws := a.windows[a.used : a.used+n : a.used+n]
	a.used += n
	for i := range ws {
		d.window(&ws[i])
	}
	return ws
}

// DecodeDetectRequest decodes a DETECT payload into fresh storage.
// Every failure wraps ErrCorrupt; the decoder never allocates more
// than the payload's own length implies and never panics.
func DecodeDetectRequest(p []byte) (DetectRequest, error) {
	var a Arena
	return a.DecodeDetect(p)
}

// DecodeDetect decodes a DETECT payload as DecodeDetectRequest does,
// into the arena: the request's program list and windows alias it.
func (a *Arena) DecodeDetect(p []byte) (DetectRequest, error) {
	a.reset(p)
	d := decoder{buf: p}
	req := DetectRequest{DeadlineMs: d.u32("deadline")}
	n := int(d.u16("program count"))
	if n > MaxPrograms {
		return DetectRequest{}, corrupt("%d programs exceeds %d", n, MaxPrograms)
	}
	if d.err == nil && n > 0 {
		if bound := min(n, len(p)/windowWireLen+1); cap(a.programs) < bound {
			a.programs = make([]DetectProgram, 0, bound)
		}
		req.Programs = a.programs[:0]
	}
	for i := 0; i < n && d.err == nil; i++ {
		prog := DetectProgram{ID: d.str8("program id")}
		w := int(d.u16("window count"))
		if w > MaxWindows {
			return DetectRequest{}, corrupt("program %d: %d windows exceeds %d", i, w, MaxWindows)
		}
		if d.err == nil && w > 0 {
			if rem := len(d.buf) - d.off; rem < w*windowWireLen {
				return DetectRequest{}, corrupt("program %d claims %d windows, %d bytes remain", i, w, rem)
			}
			prog.Windows = a.carve(&d, w)
		}
		req.Programs = append(req.Programs, prog)
	}
	if cap(req.Programs) > cap(a.programs) {
		a.programs = req.Programs
	}
	req.Tenant = d.tenantTail()
	d.done()
	if d.err != nil {
		return DetectRequest{}, d.err
	}
	return req, nil
}

// DetectTenant returns the tenant tag of a DETECT payload without
// decoding its windows: it walks the program headers, skips each
// program's window bytes, and reads the tail. It accepts and rejects
// exactly the payloads DecodeDetect does and returns the same tenant,
// so a server can settle admission before decoding anything.
func DetectTenant(p []byte) (string, error) {
	d := decoder{buf: p}
	d.u32("deadline")
	n := int(d.u16("program count"))
	if n > MaxPrograms {
		return "", corrupt("%d programs exceeds %d", n, MaxPrograms)
	}
	for i := 0; i < n && d.err == nil; i++ {
		d.skip(int(d.u8("program id")), "program id")
		w := int(d.u16("window count"))
		if rem := len(d.buf) - d.off; d.err == nil && rem < w*windowWireLen {
			return "", corrupt("program %d claims %d windows, %d bytes remain", i, w, rem)
		}
		d.skip(w*windowWireLen, "windows")
	}
	tenant := d.tenantTail()
	d.done()
	if d.err != nil {
		return "", d.err
	}
	return tenant, nil
}

// VerdictResult is one program's verdict in a VERDICT frame.
type VerdictResult struct {
	ID          string
	Malware     bool
	Unprotected bool
	Score       float64
	Confidence  float64
	Attempts    uint32
	Windows     uint32
}

// Verdict is the VERDICT frame payload.
type Verdict struct {
	// Session is the backend pool slot that served the batch.
	Session int32
	// Hedged marks a reply won by a hedge runner.
	Hedged  bool
	Results []VerdictResult
	// Tenant echoes the tenant the request was accounted to (v1.1
	// extension tail) so identity round-trips bit-identically.
	Tenant string
}

const (
	verdictHedged     = 1 << 0
	resultMalware     = 1 << 0
	resultUnprotected = 1 << 1
)

// AppendVerdict appends the canonical encoding of v.
func AppendVerdict(dst []byte, v Verdict) ([]byte, error) {
	if len(v.Results) > MaxPrograms {
		return nil, fmt.Errorf("wire: %d results exceeds %d", len(v.Results), MaxPrograms)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(v.Session))
	var flags byte
	if v.Hedged {
		flags |= verdictHedged
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(v.Results)))
	for i, r := range v.Results {
		if len(r.ID) > MaxIDLen {
			return nil, fmt.Errorf("wire: result %d id is %d bytes, limit %d", i, len(r.ID), MaxIDLen)
		}
		dst = append(dst, byte(len(r.ID)))
		dst = append(dst, r.ID...)
		var rf byte
		if r.Malware {
			rf |= resultMalware
		}
		if r.Unprotected {
			rf |= resultUnprotected
		}
		dst = append(dst, rf)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Score))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Confidence))
		dst = binary.BigEndian.AppendUint32(dst, r.Attempts)
		dst = binary.BigEndian.AppendUint32(dst, r.Windows)
	}
	if _, err := tenantTailLen(v.Tenant); err != nil {
		return nil, err
	}
	return appendTenantTail(dst, v.Tenant), nil
}

// DecodeVerdict decodes a VERDICT payload.
func DecodeVerdict(p []byte) (Verdict, error) {
	d := decoder{buf: p}
	v := Verdict{Session: int32(d.u32("session"))}
	flags := d.u8("verdict flags")
	if d.err == nil && flags&^byte(verdictHedged) != 0 {
		return Verdict{}, corrupt("reserved verdict flags 0x%02x set", flags)
	}
	v.Hedged = flags&verdictHedged != 0
	n := int(d.u16("result count"))
	if n > MaxPrograms {
		return Verdict{}, corrupt("%d results exceeds %d", n, MaxPrograms)
	}
	if d.err == nil && n > 0 {
		v.Results = make([]VerdictResult, 0, min(n, len(p)/26+1))
	}
	for i := 0; i < n && d.err == nil; i++ {
		r := VerdictResult{ID: d.str8("result id")}
		rf := d.u8("result flags")
		if d.err == nil && rf&^byte(resultMalware|resultUnprotected) != 0 {
			return Verdict{}, corrupt("result %d: reserved flags 0x%02x set", i, rf)
		}
		r.Malware = rf&resultMalware != 0
		r.Unprotected = rf&resultUnprotected != 0
		r.Score = math.Float64frombits(d.u64("score"))
		r.Confidence = math.Float64frombits(d.u64("confidence"))
		r.Attempts = d.u32("attempts")
		r.Windows = d.u32("windows")
		v.Results = append(v.Results, r)
	}
	v.Tenant = d.tenantTail()
	d.done()
	if d.err != nil {
		return Verdict{}, d.err
	}
	return v, nil
}

// ErrorFrame is the ERROR frame payload: a typed failure code (HTTP
// vocabulary) plus a human-readable message.
type ErrorFrame struct {
	Code ErrorCode
	Msg  string
	// RetryAfterSec is the sender's machine-readable backoff hint in
	// whole seconds (v1.1 extension tail, the wire twin of the HTTP
	// Retry-After header). 0 means "no hint" and is omitted from the
	// encoding; servers only emit it to peers that announced themselves
	// with a client HELLO.
	RetryAfterSec uint16
}

// Error implements error so a relayed frame can flow as a Go error.
func (e *ErrorFrame) Error() string {
	return fmt.Sprintf("wire: server error %d: %s", e.Code, e.Msg)
}

// AppendErrorFrame appends the canonical encoding of e, truncating
// the message at MaxMsgLen (an error about an error must never itself
// fail to encode).
func AppendErrorFrame(dst []byte, e ErrorFrame) []byte {
	msg := e.Msg
	if len(msg) > MaxMsgLen {
		msg = msg[:MaxMsgLen]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(e.Code))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	if e.RetryAfterSec > 0 {
		dst = binary.BigEndian.AppendUint16(dst, e.RetryAfterSec)
	}
	return dst
}

// DecodeErrorFrame decodes an ERROR payload.
func DecodeErrorFrame(p []byte) (ErrorFrame, error) {
	d := decoder{buf: p}
	e := ErrorFrame{Code: ErrorCode(d.u16("error code"))}
	e.Msg = d.str16("error message")
	if d.err == nil && d.off != len(d.buf) {
		e.RetryAfterSec = d.u16("retry-after hint")
		if d.err == nil && e.RetryAfterSec == 0 {
			return ErrorFrame{}, corrupt("zero retry-after hint (omit the tail instead)")
		}
	}
	d.done()
	if d.err != nil {
		return ErrorFrame{}, d.err
	}
	return e, nil
}

// Hello is the HELLO frame payload: the speaker's protocol version,
// the largest frame payload it will accept, and (since v1.1) an
// optional metadata section. The server greets with a HELLO after the
// preamble as before; a client MAY now send its own HELLO to announce
// identity (MetaTenant/MetaClass) and opt into v1.1 extension tails.
type Hello struct {
	Version  uint8
	MaxFrame uint32
	// Meta carries optional key/value metadata. Unknown keys are
	// ignored by the receiver; an empty map encodes identically to a
	// pre-metadata HELLO, so the base encoding never changed.
	Meta map[string]string
}

// AppendHello appends the canonical encoding of h: the metadata
// section is omitted when empty and entries are sorted by key, so
// there is exactly one encoding per value. Callers validate bounds up
// front with ValidHelloMeta; AppendHello itself never fails.
func AppendHello(dst []byte, h Hello) []byte {
	dst = append(dst, h.Version)
	dst = binary.BigEndian.AppendUint32(dst, h.MaxFrame)
	if len(h.Meta) == 0 {
		return dst
	}
	keys := make([]string, 0, len(h.Meta))
	for k := range h.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, byte(len(keys)))
	for _, k := range keys {
		dst = append(dst, byte(len(k)))
		dst = append(dst, k...)
		v := h.Meta[k]
		dst = append(dst, byte(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// ValidHelloMeta reports whether meta can be carried on the wire:
// at most MaxMetaPairs entries, keys non-empty, keys and values at
// most MaxIDLen bytes.
func ValidHelloMeta(meta map[string]string) error {
	if len(meta) > MaxMetaPairs {
		return fmt.Errorf("wire: %d metadata pairs exceeds %d", len(meta), MaxMetaPairs)
	}
	for k, v := range meta {
		if k == "" {
			return fmt.Errorf("wire: empty metadata key")
		}
		if len(k) > MaxIDLen || len(v) > MaxIDLen {
			return fmt.Errorf("wire: metadata pair %q is over %d bytes", k, MaxIDLen)
		}
	}
	return nil
}

// DecodeHello decodes a HELLO payload, with or without the v1.1
// metadata section. Per PROTOCOL.md's unknown-field rule the section
// is a strictly appended tail: a pre-metadata value occupies exactly
// the first 5 bytes, so the extension never moves existing fields.
func DecodeHello(p []byte) (Hello, error) {
	d := decoder{buf: p}
	h := Hello{Version: d.u8("version")}
	h.MaxFrame = d.u32("max frame")
	if d.err == nil && d.off != len(d.buf) {
		n := int(d.u8("metadata count"))
		if d.err == nil && (n == 0 || n > MaxMetaPairs) {
			return Hello{}, corrupt("metadata count %d outside [1, %d]", n, MaxMetaPairs)
		}
		if d.err == nil {
			h.Meta = make(map[string]string, n)
		}
		prev := ""
		for i := 0; i < n && d.err == nil; i++ {
			k := d.str8("metadata key")
			v := d.str8("metadata value")
			if d.err != nil {
				break
			}
			if k == "" {
				return Hello{}, corrupt("metadata entry %d has an empty key", i)
			}
			if i > 0 && k <= prev {
				return Hello{}, corrupt("metadata keys not strictly sorted (%q after %q)", k, prev)
			}
			prev = k
			h.Meta[k] = v
		}
	}
	d.done()
	if d.err != nil {
		return Hello{}, d.err
	}
	return h, nil
}

// GoAway is the GOAWAY frame payload: the drain reason.
type GoAway struct {
	// Code 0 means a graceful drain; other values are reserved.
	Code uint16
	Msg  string
}

// AppendGoAway appends the canonical encoding of g (message truncated
// at MaxMsgLen, as for errors).
func AppendGoAway(dst []byte, g GoAway) []byte {
	msg := g.Msg
	if len(msg) > MaxMsgLen {
		msg = msg[:MaxMsgLen]
	}
	dst = binary.BigEndian.AppendUint16(dst, g.Code)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// StreamRequest is the STREAM frame payload: one append to a
// long-lived sliding-window detection stream. The stream id is a
// client-chosen handle scoped to the connection; each append is a
// normal correlated request-response exchange (the server answers
// with a VERDICT carrying the re-scorings this append triggered,
// possibly zero), so streams multiplex like any other frame.
type StreamRequest struct {
	// StreamID identifies the stream on this connection. The first
	// append with a given id opens the stream.
	StreamID uint32
	// Close tears the stream down after this append's windows are
	// scored; the server drops the buffered session state.
	Close bool
	// Stride is the re-detection stride in windows — how many new
	// windows arrive between overlapping re-scorings. Honored on the
	// opening append; 0 selects the tenant's configured default.
	Stride uint16
	// ID is the program label echoed in verdicts (opening append).
	ID string
	// Windows are appended to the stream's sliding buffer in order.
	Windows []trace.WindowCounts
	// Tenant optionally tags the append (extension tail, like DETECT).
	Tenant string
}

// streamClose is the STREAM payload flag bit for Close.
const streamClose = 1 << 0

// AppendStreamRequest appends the canonical encoding of req, sizing
// the payload first and growing dst at most once.
func AppendStreamRequest(dst []byte, req StreamRequest) ([]byte, error) {
	if len(req.ID) > MaxIDLen {
		return nil, fmt.Errorf("wire: stream id label is %d bytes, limit %d", len(req.ID), MaxIDLen)
	}
	if len(req.Windows) > MaxWindows {
		return nil, fmt.Errorf("wire: stream append has %d windows, limit %d", len(req.Windows), MaxWindows)
	}
	tail, err := tenantTailLen(req.Tenant)
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, 4+1+2+1+len(req.ID)+2+len(req.Windows)*windowWireLen+tail)
	dst = binary.BigEndian.AppendUint32(dst, req.StreamID)
	var flags byte
	if req.Close {
		flags |= streamClose
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint16(dst, req.Stride)
	dst = append(dst, byte(len(req.ID)))
	dst = append(dst, req.ID...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Windows)))
	for w := range req.Windows {
		if dst, err = appendWindow(dst, &req.Windows[w], 0, w); err != nil {
			return nil, err
		}
	}
	return appendTenantTail(dst, req.Tenant), nil
}

// DecodeStream decodes a STREAM payload into the arena: the request's
// windows alias it.
func (a *Arena) DecodeStream(p []byte) (StreamRequest, error) {
	a.reset(p)
	d := decoder{buf: p}
	req := StreamRequest{StreamID: d.u32("stream id")}
	flags := d.u8("stream flags")
	if d.err == nil && flags&^byte(streamClose) != 0 {
		return StreamRequest{}, corrupt("reserved stream flags 0x%02x set", flags)
	}
	req.Close = flags&streamClose != 0
	req.Stride = d.u16("stride")
	req.ID = d.str8("stream label")
	w := int(d.u16("window count"))
	if w > MaxWindows {
		return StreamRequest{}, corrupt("%d windows exceeds %d", w, MaxWindows)
	}
	if d.err == nil && w > 0 {
		if rem := len(d.buf) - d.off; rem < w*windowWireLen {
			return StreamRequest{}, corrupt("stream append claims %d windows, %d bytes remain", w, rem)
		}
		req.Windows = a.carve(&d, w)
	}
	req.Tenant = d.tenantTail()
	d.done()
	if d.err != nil {
		return StreamRequest{}, d.err
	}
	return req, nil
}

// decoder is a bounds-checked big-endian cursor. The first failure
// latches in err and every later read returns zero values, so payload
// codecs read straight-line and check once at the end.
type decoder struct {
	buf []byte
	off int
	err error
}

// need reserves n bytes, latching a corruption error when they are
// not there.
func (d *decoder) need(n int, what string) bool {
	if d.err != nil {
		return false
	}
	if len(d.buf)-d.off < n {
		d.err = corrupt("truncated %s: need %d bytes, %d remain", what, n, len(d.buf)-d.off)
		return false
	}
	return true
}

func (d *decoder) u8(what string) uint8 {
	if !d.need(1, what) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u16(what string) uint16 {
	if !d.need(2, what) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32(what string) uint32 {
	if !d.need(4, what) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64(what string) uint64 {
	if !d.need(8, what) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// skip passes over n bytes.
func (d *decoder) skip(n int, what string) {
	if d.need(n, what) {
		d.off += n
	}
}

// str8 reads a u8-length-prefixed string.
func (d *decoder) str8(what string) string {
	n := int(d.u8(what))
	if !d.need(n, what) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// str16 reads a u16-length-prefixed string.
func (d *decoder) str16(what string) string {
	n := int(d.u16(what))
	if !d.need(n, what) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// window reads one fixed-size window encoding into *w, overwriting
// every field. The caller checked that its bytes remain.
func (d *decoder) window(w *trace.WindowCounts) {
	b := d.buf[d.off : d.off+windowWireLen]
	d.off += windowWireLen
	w.Taken = int(binary.BigEndian.Uint32(b))
	b = b[4:]
	for i := range w.Opcode {
		w.Opcode[i] = int(binary.BigEndian.Uint32(b[4*i:]))
	}
	b = b[4*len(w.Opcode):]
	for i := range w.Stride {
		w.Stride[i] = int(binary.BigEndian.Uint32(b[4*i:]))
	}
}

// done asserts the payload was consumed exactly: trailing garbage is
// corruption, not padding.
func (d *decoder) done() {
	if d.err == nil && d.off != len(d.buf) {
		d.err = corrupt("%d trailing payload bytes", len(d.buf)-d.off)
	}
}
