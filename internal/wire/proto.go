package wire

// SHMDWIRE v1 — the repo's binary wire protocol for persistent detect
// connections. The full specification lives in PROTOCOL.md; this file
// is the frame layer only:
//
//   - a connection preamble each direction sends once: the 8-byte
//     magic "SHMDWIRE" followed by a 1-byte protocol version;
//   - self-delimiting frames: type(1) + flags(1) + correlation id
//     (8, BE) + payload length (4, BE) + payload + CRC32-IEEE (4, BE)
//     over every byte of the frame before the trailer.
//
// Framing is version-stable by construction: a v1 endpoint can skip
// any structurally valid frame it does not understand (the length and
// checksum never depend on the type), which is what lets unknown
// frame types be skipped with a warning instead of killing the
// connection, and lets future versions add frame types without a
// flag day. Every structural failure wraps ErrCorrupt, consistent
// with the block and record codecs in this package; an oversized
// frame is the one recoverable failure and gets its own typed error
// (TooLargeError) because the reader can resynchronize past it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// ProtoMagic opens every SHMDWIRE connection, once per direction.
	ProtoMagic = "SHMDWIRE"
	// ProtoVersion is the protocol version this package implements.
	ProtoVersion = 1
	// PreambleLen is the connection preamble size: magic + version.
	PreambleLen = len(ProtoMagic) + 1
	// FrameHeaderLen is type + flags + correlation id + payload length.
	FrameHeaderLen = 1 + 1 + 8 + 4
	// FrameTrailerLen is the CRC32-IEEE trailer.
	FrameTrailerLen = 4
	// DefaultMaxFramePayload bounds the payload length a reader will
	// believe (matching the HTTP transport's default body limit).
	DefaultMaxFramePayload = 4 << 20
)

// FrameType identifies a v1 frame. The zero value is invalid on the
// wire, so a torn header never masquerades as a real frame type.
type FrameType uint8

const (
	// FrameHello is the server's post-preamble greeting: its version
	// and frame payload limit.
	FrameHello FrameType = 0x01
	// FrameDetect carries one detect request (client → server).
	FrameDetect FrameType = 0x02
	// FrameVerdict carries the verdicts for one detect request.
	FrameVerdict FrameType = 0x03
	// FrameError is a per-request typed failure (correlated) or a
	// connection-level failure (correlation id 0).
	FrameError FrameType = 0x04
	// FramePing / FramePong are liveness probes; the pong echoes the
	// ping's correlation id.
	FramePing FrameType = 0x05
	FramePong FrameType = 0x06
	// FrameGoAway is the drain signal: the sender will accept no new
	// requests on this connection but will finish in-flight ones.
	FrameGoAway FrameType = 0x07
	// FrameHealthReq asks for the server's health report.
	FrameHealthReq FrameType = 0x08
	// FrameHealth answers FrameHealthReq with an opaque JSON payload.
	FrameHealth FrameType = 0x09
	// FrameStream appends windows to a long-lived sliding-window
	// detection stream (client → server); the server answers each
	// append with a VERDICT carrying the re-scorings it triggered.
	FrameStream FrameType = 0x0A
)

// Known reports whether t is a frame type this version understands.
// Unknown types with valid framing are skipped, never fatal.
func (t FrameType) Known() bool {
	return t >= FrameHello && t <= FrameStream
}

// String names the frame type for logs and errors.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "HELLO"
	case FrameDetect:
		return "DETECT"
	case FrameVerdict:
		return "VERDICT"
	case FrameError:
		return "ERROR"
	case FramePing:
		return "PING"
	case FramePong:
		return "PONG"
	case FrameGoAway:
		return "GOAWAY"
	case FrameHealthReq:
		return "HEALTH_REQ"
	case FrameHealth:
		return "HEALTH"
	case FrameStream:
		return "STREAM"
	default:
		return fmt.Sprintf("wire.FrameType(0x%02x)", uint8(t))
	}
}

// ErrorCode classifies a FrameError payload. The values deliberately
// mirror HTTP status codes so the two transports shed, reject, and
// fail with the same vocabulary (and the same metrics buckets).
type ErrorCode uint16

const (
	// CodeBadRequest: the request failed validation.
	CodeBadRequest ErrorCode = 400
	// CodeForbidden: the tenant is unknown to the server's registry.
	CodeForbidden ErrorCode = 403
	// CodeTooLarge: the frame exceeded the receiver's payload limit.
	CodeTooLarge ErrorCode = 413
	// CodeOverloaded: admission queue full; retry after backoff.
	CodeOverloaded ErrorCode = 429
	// CodeBadGateway: a router's backends are reachable but misbehaving.
	CodeBadGateway ErrorCode = 502
	// CodeInternal: the detection itself failed.
	CodeInternal ErrorCode = 500
	// CodeUnavailable: draining, pool closed, or deadline expired.
	CodeUnavailable ErrorCode = 503
	// CodeVersion: the peer's protocol version is not supported.
	CodeVersion ErrorCode = 505
)

// ErrVersion marks a connection whose peer speaks an unsupported
// protocol version.
var ErrVersion = errors.New("wire: unsupported protocol version")

// Frame is one decoded SHMDWIRE frame.
type Frame struct {
	Type FrameType
	// Flags is reserved in v1 and must be zero on the wire.
	Flags uint8
	// Corr correlates requests with their responses on a multiplexed
	// connection. 0 is reserved for connection-level frames.
	Corr uint64
	// Payload is the frame body; its codec depends on Type.
	Payload []byte
}

// TooLargeError reports a frame whose payload length exceeded the
// reader's limit. The reader has already consumed and discarded the
// frame, so the connection is still synchronized: the receiver can
// answer with a typed CodeTooLarge error instead of dying.
type TooLargeError struct {
	Type FrameType
	Corr uint64
	Len  int
	Max  int
}

// Error implements error.
func (e *TooLargeError) Error() string {
	return fmt.Sprintf("wire: %v frame payload %d exceeds limit %d", e.Type, e.Len, e.Max)
}

// AppendPreamble appends the connection preamble for version v.
func AppendPreamble(dst []byte, v uint8) []byte {
	dst = append(dst, ProtoMagic...)
	return append(dst, v)
}

// WritePreamble writes the connection preamble for version v.
func WritePreamble(w io.Writer, v uint8) error {
	_, err := w.Write(AppendPreamble(nil, v))
	return err
}

// ReadPreamble consumes and validates the peer's connection preamble,
// returning the version it advertises. Bad magic wraps ErrCorrupt —
// nothing after it can be trusted.
func ReadPreamble(r io.Reader) (uint8, error) {
	buf := make([]byte, PreambleLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, corrupt("reading preamble: %v", err)
	}
	if string(buf[:len(ProtoMagic)]) != ProtoMagic {
		return 0, corrupt("bad protocol magic %q", buf[:len(ProtoMagic)])
	}
	return buf[len(ProtoMagic)], nil
}

// AppendFrame appends the encoded frame to dst and returns it.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst, f)
	dst = append(dst, f.Payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// appendFrameHeader appends f's type, flags, correlation id and
// payload length.
func appendFrameHeader(dst []byte, f Frame) []byte {
	dst = append(dst, byte(f.Type), f.Flags)
	dst = binary.BigEndian.AppendUint64(dst, f.Corr)
	return binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
}

// readWireFrame reads one frame from r, reading the header into hdr,
// which a connection's single reader reuses for every frame. An
// oversized frame is consumed (payload discarded) and reported as
// *TooLargeError, leaving the stream synchronized on the next frame
// boundary; every other failure wraps ErrCorrupt except an error
// before the first header byte (io.EOF at a clean close), returned
// unwrapped.
func readWireFrame(r io.Reader, maxPayload int, hdr *[FrameHeaderLen]byte) (Frame, error) {
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if n == 0 {
			// Nothing of the frame arrived: a clean close (io.EOF) or a
			// transport error at a frame boundary, not corruption —
			// returned unwrapped so callers can match net.ErrClosed.
			return Frame{}, err
		}
		return Frame{}, corrupt("torn frame header: %v", err)
	}
	f := Frame{
		Type:  FrameType(hdr[0]),
		Flags: hdr[1],
		Corr:  binary.BigEndian.Uint64(hdr[2:10]),
	}
	n := binary.BigEndian.Uint32(hdr[10:14])
	if n > uint32(maxPayload) {
		// Drain payload + trailer so the next read starts on a frame
		// boundary; the peer's framing is fine, only the size is not.
		if _, err := io.CopyN(io.Discard, r, int64(n)+FrameTrailerLen); err != nil {
			return Frame{}, corrupt("torn oversized frame: %v", err)
		}
		return Frame{}, &TooLargeError{Type: f.Type, Corr: f.Corr, Len: int(n), Max: maxPayload}
	}
	body := make([]byte, FrameHeaderLen+int(n)+FrameTrailerLen)
	copy(body, hdr[:])
	if _, err := io.ReadFull(r, body[FrameHeaderLen:]); err != nil {
		return Frame{}, corrupt("torn frame payload: %v", err)
	}
	want := binary.BigEndian.Uint32(body[FrameHeaderLen+int(n):])
	if got := crc32.ChecksumIEEE(body[:FrameHeaderLen+int(n)]); got != want {
		return Frame{}, corrupt("frame CRC32 %08x, trailer says %08x", got, want)
	}
	if f.Flags != 0 {
		return Frame{}, corrupt("reserved frame flags 0x%02x set", f.Flags)
	}
	f.Payload = body[FrameHeaderLen : FrameHeaderLen+int(n)]
	return f, nil
}
