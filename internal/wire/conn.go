package wire

// Conn wraps a net.Conn with the SHMDWIRE preamble exchange and
// frame-at-a-time I/O. It is the one connection type every SHMDWIRE
// endpoint shares — the serve listener, the router's upstream pool,
// and the client SDK — so handshake and framing behave identically
// at every hop.
//
// Reads are single-consumer (one reader goroutine per connection);
// writes are serialized internally, so any number of goroutines may
// WriteFrame concurrently — that is what lets a server interleave
// verdict frames from concurrent detections onto one connection.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"time"
)

// Conn is one SHMDWIRE connection. Construct with NewConn, then
// Handshake before any frame I/O.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	// rhdr is the frame header ReadFrame reads into.
	rhdr [FrameHeaderLen]byte

	wmu sync.Mutex
	bw  *bufio.Writer

	maxPayload int
}

// NewConn wraps nc. maxPayload bounds incoming frame payloads
// (0 = DefaultMaxFramePayload).
func NewConn(nc net.Conn, maxPayload int) *Conn {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxFramePayload
	}
	return &Conn{
		nc:         nc,
		br:         bufio.NewReaderSize(nc, 32<<10),
		bw:         bufio.NewWriterSize(nc, 32<<10),
		maxPayload: maxPayload,
	}
}

// Handshake sends our preamble and reads the peer's, within the given
// budget (0 = no deadline). It returns the peer's advertised version
// without judging it: the caller decides whether to answer a skewed
// version with a typed ERROR frame (server) or hang up (client).
func (c *Conn) Handshake(timeout time.Duration) (uint8, error) {
	if timeout > 0 {
		if err := c.nc.SetDeadline(time.Now().Add(timeout)); err != nil {
			return 0, err
		}
		defer c.nc.SetDeadline(time.Time{})
	}
	// Write first, then read: both sides send eagerly, so neither
	// blocks waiting for the other's preamble.
	c.wmu.Lock()
	err := WritePreamble(c.bw, ProtoVersion)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("wire: sending preamble: %w", err)
	}
	return ReadPreamble(c.br)
}

// MaxPayload returns the incoming payload bound.
func (c *Conn) MaxPayload() int { return c.maxPayload }

// ReadFrame reads the next frame. io.EOF means the peer closed at a
// frame boundary; *TooLargeError means an oversized frame was skipped
// and the stream is still synchronized; everything else wraps
// ErrCorrupt or is a transport error.
func (c *Conn) ReadFrame() (Frame, error) {
	return readWireFrame(c.br, c.maxPayload, &c.rhdr)
}

// SetReadDeadline bounds the next ReadFrame (zero clears it).
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// WriteFrame encodes and sends one frame. Safe for concurrent use;
// each frame is flushed whole, so frames from concurrent writers
// never interleave. The header, the payload and the CRC trailer go
// straight into the connection's buffered writer (the CRC runs over
// the header, then the payload), so the bytes are AppendFrame's
// without staging a copy of the frame. The payload is copied out
// before WriteFrame returns: the caller may reuse it at once.
func (c *Conn) WriteFrame(f Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// AvailableBuffer appends into the writer's free space, so the
	// header and trailer are not staged anywhere else.
	hdr := appendFrameHeader(c.bw.AvailableBuffer(), f)
	crc := crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, f.Payload)
	c.bw.Write(hdr)
	c.bw.Write(f.Payload)
	c.bw.Write(binary.BigEndian.AppendUint32(c.bw.AvailableBuffer(), crc))
	// The writer latches its first error and Flush reports it.
	return c.bw.Flush()
}

// WriteError sends an ERROR frame correlated to corr.
func (c *Conn) WriteError(corr uint64, code ErrorCode, msg string) error {
	return c.WriteFrame(Frame{Type: FrameError, Corr: corr, Payload: AppendErrorFrame(nil, ErrorFrame{Code: code, Msg: msg})})
}

// RemoteAddr exposes the peer address for logs.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// Dial opens a SHMDWIRE connection to addr and completes the
// handshake. A peer speaking an unsupported version (or not speaking
// SHMDWIRE at all) fails here, never mid-stream.
func Dial(addr string, timeout time.Duration, maxPayload int) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := NewConn(nc, maxPayload)
	v, err := c.Handshake(timeout)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if v != ProtoVersion {
		nc.Close()
		return nil, fmt.Errorf("%w: peer %s speaks v%d, this client speaks v%d", ErrVersion, addr, v, ProtoVersion)
	}
	return c, nil
}
