package wire

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"

	"shmd/internal/trace"
)

// windowsOf returns n distinct golden windows starting at salt.
func windowsOf(salt, n int) []trace.WindowCounts {
	out := make([]trace.WindowCounts, n)
	for i := range out {
		out[i] = goldenWindow(salt + i)
	}
	return out
}

// TestArenaDecodeDetectReuse decodes a long DETECT payload and then a
// shorter one through one arena: the second result equals a fresh
// decode — no window of the first payload survives in it — and so
// does the long one decoded again after it.
func TestArenaDecodeDetectReuse(t *testing.T) {
	long, err := AppendDetectRequest(nil, DetectRequest{
		DeadlineMs: 9,
		Programs: []DetectProgram{
			{ID: "a", Windows: windowsOf(1, 7)},
			{ID: "b", Windows: windowsOf(20, 5)},
			{ID: "c", Windows: windowsOf(40, 3)},
		},
		Tenant: "acme",
	})
	if err != nil {
		t.Fatal(err)
	}
	short, err := AppendDetectRequest(nil, DetectRequest{
		Programs: []DetectProgram{{ID: "z", Windows: windowsOf(90, 2)}, {ID: "empty"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	for i, p := range [][]byte{long, short, long, short} {
		got, err := a.DecodeDetect(p)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		want, err := DecodeDetectRequest(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %d through a reused arena = %+v, fresh decode %+v", i, got, want)
		}
		enc, err := AppendDetectRequest(nil, got)
		if err != nil || !bytes.Equal(enc, p) {
			t.Fatalf("decode %d does not re-encode to its payload (err %v)", i, err)
		}
		// Appending to one program's windows must never reach the next.
		if n := len(got.Programs[0].Windows); cap(got.Programs[0].Windows) != n {
			t.Fatalf("decode %d: program 0 windows cap %d, len %d", i, cap(got.Programs[0].Windows), n)
		}
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := a.DecodeDetect(long); err != nil {
			t.Fatal(err)
		}
	}); got > 5 {
		// Program ids and the tenant tag are the only allocations.
		t.Errorf("warm arena decode allocates %v times, want <= 5", got)
	}
}

// TestArenaDecodeStreamReuse is TestArenaDecodeDetectReuse for STREAM
// appends, through the same arena as DETECT payloads.
func TestArenaDecodeStreamReuse(t *testing.T) {
	long, err := AppendStreamRequest(nil, StreamRequest{StreamID: 4, Stride: 2, ID: "s", Windows: windowsOf(3, 6)})
	if err != nil {
		t.Fatal(err)
	}
	short, err := AppendStreamRequest(nil, StreamRequest{StreamID: 4, Close: true, Windows: windowsOf(50, 1)})
	if err != nil {
		t.Fatal(err)
	}
	detect, err := AppendDetectRequest(nil, DetectRequest{Programs: []DetectProgram{{Windows: windowsOf(70, 4)}}})
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	for i, p := range [][]byte{long, short, detect, short} {
		if i == 2 {
			if _, err := a.DecodeDetect(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := a.DecodeStream(p)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		want, err := new(Arena).DecodeStream(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %d through a reused arena = %+v, fresh decode %+v", i, got, want)
		}
	}
}

// TestArenaClear pins Clear: the windows and programs of the last
// decode read as zero afterwards.
func TestArenaClear(t *testing.T) {
	p, err := AppendDetectRequest(nil, DetectRequest{Programs: []DetectProgram{{ID: "x", Windows: windowsOf(5, 3)}}})
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	req, err := a.DecodeDetect(p)
	if err != nil {
		t.Fatal(err)
	}
	windows := req.Programs[0].Windows
	a.Clear()
	for i, w := range windows {
		if w != (trace.WindowCounts{}) {
			t.Fatalf("window %d survives Clear", i)
		}
	}
	if req.Programs[:1][0].ID != "" {
		t.Fatal("program id survives Clear")
	}
}

// TestConnWriteFrameBytes pins Conn.WriteFrame's streamed header,
// payload and CRC trailer to AppendFrame's bytes for every golden
// frame, back to back on one connection.
func TestConnWriteFrameBytes(t *testing.T) {
	frames := goldenFrames(t)
	var want []byte
	var order []Frame
	for _, f := range frames {
		order = append(order, f)
		want = AppendFrame(want, f)
	}
	// A payload larger than the connection's write buffer goes through
	// the writer unbuffered.
	big := Frame{Type: FrameHealth, Corr: 77, Payload: bytes.Repeat([]byte{0xA5, 0x5A, 1}, 40<<10)}
	order = append(order, big)
	want = AppendFrame(want, big)

	client, server := net.Pipe()
	c := NewConn(client, 0)
	errc := make(chan error, 1)
	go func() {
		defer client.Close()
		for _, f := range order {
			if err := c.WriteFrame(f); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WriteFrame wrote %d bytes that differ from AppendFrame's %d", len(got), len(want))
	}
}
