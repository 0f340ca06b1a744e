package sdk

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"shmd/internal/trace"
	"shmd/internal/wire"
)

// Stream pipelines detect requests over the client's multiplexed
// connection with a bounded in-flight window: Submit blocks when the
// window is full (backpressure), completed requests surface on
// Results in completion order. One stream mirrors one monitored
// process's continuous window feed.
type Stream struct {
	cl  *Client
	ctx context.Context
	// sem bounds in-flight requests.
	sem chan struct{}
	// seq numbers submissions so a consumer can reorder if it cares.
	seq     atomic.Uint64
	results chan StreamResult
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// StreamResult is one submitted request's outcome. Every accepted
// Submit produces exactly one StreamResult — lost connections surface
// as Err (ErrConnLost), never as silence.
type StreamResult struct {
	// Seq is the submission's 1-based sequence number.
	Seq     uint64
	Verdict wire.Verdict
	Err     error
}

// DetectStream opens a pipelined detect stream. maxInFlight bounds
// concurrent requests (<=0 means 16). Cancel ctx or call Close to end
// the stream; Results closes once every in-flight request resolves.
func (cl *Client) DetectStream(ctx context.Context, maxInFlight int) *Stream {
	if maxInFlight <= 0 {
		maxInFlight = 16
	}
	return &Stream{
		cl:      cl,
		ctx:     ctx,
		sem:     make(chan struct{}, maxInFlight),
		results: make(chan StreamResult, maxInFlight),
	}
}

// Submit enqueues one request, blocking while the in-flight window is
// full. It returns the submission's sequence number, or an error if
// the stream's context ended or the stream was closed (the request
// was NOT submitted in that case).
func (st *Stream) Submit(req wire.DetectRequest) (uint64, error) {
	if st.closed.Load() {
		return 0, ErrClosed
	}
	select {
	case st.sem <- struct{}{}:
	case <-st.ctx.Done():
		return 0, st.ctx.Err()
	}
	if st.closed.Load() {
		<-st.sem
		return 0, ErrClosed
	}
	seq := st.seq.Add(1)
	st.wg.Add(1)
	go func() {
		defer func() { <-st.sem; st.wg.Done() }()
		v, err := st.cl.Detect(st.ctx, req)
		st.results <- StreamResult{Seq: seq, Verdict: v, Err: err}
	}()
	return seq, nil
}

// Results delivers completed requests. The channel closes after Close
// (or context cancellation) once every in-flight request resolves.
func (st *Stream) Results() <-chan StreamResult { return st.results }

// Close stops new submissions and closes Results once in-flight
// requests resolve. The consumer must keep draining Results until it
// closes.
func (st *Stream) Close() {
	if !st.closed.CompareAndSwap(false, true) {
		return
	}
	go func() {
		st.wg.Wait()
		close(st.results)
	}()
}

// WindowStream is a long-lived sliding-window detection stream (wire
// STREAM frames): the client feeds raw windows as they are captured
// and the server re-scores the trailing detection period every stride
// windows, without the client resending history.
//
// Every push carries the stream's label, stride, and tenant tag, so a
// stream transparently re-opens after a reconnect — with an empty
// server-side window buffer, since that state lived on the lost
// connection. Streams talk directly to a backend; routers refuse
// STREAM frames.
type WindowStream struct {
	cl     *Client
	id     uint32
	label  string
	stride uint16
	tenant string
	closed atomic.Bool
}

// OpenWindowStream creates a window stream for one monitored program.
// label is echoed in verdict result IDs as "label#N" (N = the window
// index the re-scoring triggered at). stride <= 0 selects the server's
// per-tenant default. The stream inherits the client's Options.Tenant.
// No frame is sent until the first Push.
func (cl *Client) OpenWindowStream(label string, stride int) *WindowStream {
	ws := &WindowStream{
		cl:    cl,
		id:    cl.streamID.Add(1),
		label: label,
	}
	if stride > 0 && stride <= int(^uint16(0)) {
		ws.stride = uint16(stride)
	}
	ws.tenant = cl.opts.Tenant
	return ws
}

// push round-trips one STREAM frame and maps the reply.
func (ws *WindowStream) push(ctx context.Context, req wire.StreamRequest) ([]wire.VerdictResult, error) {
	buf := encodeBufs.Get().(*[]byte)
	payload, err := wire.AppendStreamRequest((*buf)[:0], req)
	if err != nil {
		encodeBufs.Put(buf)
		return nil, err
	}
	f, err := ws.cl.roundTrip(ctx, wire.FrameStream, payload, buf)
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case wire.FrameVerdict:
		v, err := wire.DecodeVerdict(f.Payload)
		if err != nil {
			return nil, err
		}
		return v.Results, nil
	case wire.FrameError:
		e, decErr := wire.DecodeErrorFrame(f.Payload)
		if decErr != nil {
			return nil, decErr
		}
		return nil, typedError(&e)
	default:
		return nil, fmt.Errorf("sdk: unexpected %v response to stream append", f.Type)
	}
}

// Push appends windows to the stream and returns any re-scorings they
// triggered (empty when the windows only buffered). A tenant-QoS shed
// comes back as *ErrRateLimited with nothing buffered server-side —
// the caller retries the same windows after the hint.
func (ws *WindowStream) Push(ctx context.Context, windows []trace.WindowCounts) ([]wire.VerdictResult, error) {
	if ws.closed.Load() {
		return nil, ErrClosed
	}
	return ws.push(ctx, wire.StreamRequest{
		StreamID: ws.id,
		ID:       ws.label,
		Stride:   ws.stride,
		Tenant:   ws.tenant,
		Windows:  windows,
	})
}

// Close tears the stream's server-side state down. Idempotent; the
// stream refuses pushes afterwards.
func (ws *WindowStream) Close(ctx context.Context) error {
	if !ws.closed.CompareAndSwap(false, true) {
		return nil
	}
	_, err := ws.push(ctx, wire.StreamRequest{
		StreamID: ws.id,
		ID:       ws.label,
		Tenant:   ws.tenant,
		Close:    true,
	})
	return err
}
