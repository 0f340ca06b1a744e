package serve

import (
	"io"
	"sync"

	"shmd/internal/isa"
	"shmd/internal/trace"
)

// Pooling bounds for the decode scratch. A scratch that grew past them
// on one large request is dropped rather than pooled, so a burst of big
// bodies cannot pin its peak size in memory.
const (
	initialBodyBytes   = 4 << 10
	maxPooledBodyBytes = 64 << 10
	maxPooledWindows   = 64
	// maxCountDigits caps the digits of one count on the fast path:
	// any wider number (already past maxCount) goes to the reference
	// decoder, which reports it.
	maxCountDigits = 15
)

// decodeScratch is the reusable state of one DecodeDetectRequest call:
// the buffered body, the parse position in it, and the windows of the
// program being parsed.
type decodeScratch struct {
	body    []byte
	pos     int
	windows []trace.WindowCounts
}

var decodePool = sync.Pool{New: func() any {
	return &decodeScratch{body: make([]byte, 0, initialBodyBytes)}
}}

// release returns s to the pool unless a large request grew it.
func (s *decodeScratch) release() {
	if cap(s.body) <= maxPooledBodyBytes && cap(s.windows) <= maxPooledWindows {
		decodePool.Put(s)
	}
}

// readBody appends all of r to b, as io.ReadAll does, and returns the
// bytes read with the first error other than io.EOF.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parse decodes s.body in one pass when it lies in the subset this
// parser handles and describes a valid request; otherwise ok is false
// and the reference decoder must judge the body. The subset: the
// request, program and window objects with their exact, unescaped,
// non-repeated keys; IDs of printable ASCII without escapes; counts of
// at most maxCountDigits digits with no sign, leading zero, fraction
// or exponent; at most isa.NumOpcodes opcode counts and 0 or
// trace.StrideBuckets stride counts; JSON whitespace between tokens and
// nothing but whitespace after the closing brace.
func (s *decodeScratch) parse(lim Limits) ([]DecodedProgram, bool) {
	s.pos = 0
	if !s.consume('{') {
		return nil, false
	}
	if key, ok := s.key(); !ok || string(key) != "programs" || !s.consume('[') {
		return nil, false
	}
	// An empty programs or windows array is an invalid request, so it
	// is left to the reference decoder like any other.
	var programs []DecodedProgram
	for {
		if len(programs) == lim.MaxPrograms {
			return nil, false
		}
		p, ok := s.program(lim)
		if !ok {
			return nil, false
		}
		programs = append(programs, p)
		if !s.consume(',') {
			break
		}
	}
	if !s.consume(']') || !s.consume('}') {
		return nil, false
	}
	s.skipSpace()
	if s.pos != len(s.body) || ValidatePrograms(programs, lim) != nil {
		return nil, false
	}
	return programs, true
}

// program parses one program object.
func (s *decodeScratch) program(lim Limits) (DecodedProgram, bool) {
	var p DecodedProgram
	if !s.consume('{') {
		return p, false
	}
	var haveID, haveWindows bool
	for {
		key, ok := s.key()
		if !ok {
			return p, false
		}
		switch string(key) {
		case "id":
			if haveID {
				return p, false
			}
			haveID = true
			s.skipSpace()
			id, ok := s.str()
			if !ok {
				return p, false
			}
			p.ID = string(id)
		case "windows":
			if haveWindows || !s.windowList(lim) {
				return p, false
			}
			haveWindows = true
			p.Windows = make([]trace.WindowCounts, len(s.windows))
			copy(p.Windows, s.windows)
		default:
			return p, false
		}
		if s.consume(',') {
			continue
		}
		return p, haveWindows && s.consume('}')
	}
}

// windowList parses a windows array into s.windows.
func (s *decodeScratch) windowList(lim Limits) bool {
	s.windows = s.windows[:0]
	if !s.consume('[') {
		return false
	}
	for {
		if len(s.windows) == lim.MaxWindows {
			return false
		}
		s.windows = append(s.windows, trace.WindowCounts{})
		if !s.window(&s.windows[len(s.windows)-1]) {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

// window parses one window object into the zeroed wc.
func (s *decodeScratch) window(wc *trace.WindowCounts) bool {
	if !s.consume('{') {
		return false
	}
	var haveOpcode, haveTaken, haveStride bool
	for {
		key, ok := s.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "opcode":
			if haveOpcode {
				return false
			}
			haveOpcode = true
			if n, ok := s.counts(wc.Opcode[:]); !ok || n != isa.NumOpcodes {
				return false
			}
		case "taken":
			if haveTaken {
				return false
			}
			haveTaken = true
			if wc.Taken, ok = s.count(); !ok {
				return false
			}
		case "stride":
			if haveStride {
				return false
			}
			haveStride = true
			if n, ok := s.counts(wc.Stride[:]); !ok || (n != 0 && n != trace.StrideBuckets) {
				return false
			}
		default:
			return false
		}
		if s.consume(',') {
			continue
		}
		return haveOpcode && s.consume('}')
	}
}

// counts parses an array of counts into dst and returns how many it
// held; more than len(dst) is outside the subset.
func (s *decodeScratch) counts(dst []int) (int, bool) {
	if !s.consume('[') {
		return 0, false
	}
	if s.consume(']') {
		return 0, true
	}
	for n := 0; n < len(dst); {
		v, ok := s.count()
		if !ok {
			return 0, false
		}
		dst[n] = v
		n++
		if !s.consume(',') {
			return n, s.consume(']')
		}
	}
	return 0, false
}

// count parses one unsigned count. A leading '0' ends the number, so
// "0123" fails at the next delimiter check rather than reading as 123.
func (s *decodeScratch) count() (int, bool) {
	s.skipSpace()
	b, i := s.body, s.pos
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, false
	}
	if b[i] == '0' {
		s.pos = i + 1
		return 0, true
	}
	v := 0
	for start := i; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i-start == maxCountDigits {
			return 0, false
		}
		v = v*10 + int(b[i]-'0')
	}
	s.pos = i
	return v, true
}

// key parses an object key and its colon.
func (s *decodeScratch) key() ([]byte, bool) {
	s.skipSpace()
	k, ok := s.str()
	return k, ok && s.consume(':')
}

// str parses a string at the current position, without escapes and
// with printable ASCII only; the result aliases s.body.
func (s *decodeScratch) str() ([]byte, bool) {
	b, i := s.body, s.pos
	if i >= len(b) || b[i] != '"' {
		return nil, false
	}
	for start := i + 1; i+1 < len(b); {
		i++
		switch c := b[i]; {
		case c == '"':
			s.pos = i + 1
			return b[start:i], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *decodeScratch) consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.body) && s.body[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// skipSpace skips JSON whitespace.
func (s *decodeScratch) skipSpace() {
	for s.pos < len(s.body) {
		switch s.body[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}
