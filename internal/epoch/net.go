package epoch

// Wire protocol for serving an epoch Server over a byte stream
// (cmd/phserver listens, cmd/phload -server drives). The protocol is
// deliberately tiny and stdlib-only:
//
//	request  (21 bytes, little-endian):
//	    id uint64 | op uint8 | key uint64 | timeout_us uint32
//	response (21-byte header + payload):
//	    id uint64 | status uint8 | value uint64 | nelems uint32
//	    followed by nelems little-endian uint64 elements (OpElements).
//
// Requests pipeline freely; responses come back in request order per
// connection (ops from one connection land in epochs in submission
// order, and epochs complete in order, so in-order delivery adds no
// latency). timeout_us is the per-request deadline; 0 means none.
// Admission refusals (StatusOverloaded, StatusClosed, ...) use the
// same response frames, so an overloaded server degrades into explicit
// per-request shed signals, never into dropped bytes or stalled
// connections.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"phasehash/internal/core"
)

// Response status codes.
const (
	StatusOK         uint8 = iota // op executed; find hit carries the value
	StatusMiss                    // find executed, key absent
	StatusOverloaded              // refused at admission: queue at limit
	StatusDeadline                // deadline expired (blocked admission or shed before flush)
	StatusClosed                  // server is shutting down
	StatusFull                    // insert did not land: table saturated
	StatusCancelled               // result delivery cancelled mid-epoch
	StatusReserved                // insert of the reserved empty element
	StatusInternal                // unexpected server-side error
)

const (
	reqFrameLen  = 21
	respFrameLen = 21
	// maxWireElems bounds an OpElements payload a client will accept
	// (defense against a corrupt length header, not a protocol limit).
	maxWireElems = 1 << 28
)

// statusOf maps a resolved Result to its wire status.
func statusOf(res Result, op Op) uint8 {
	switch {
	case res.Err == nil:
		if op == OpFind && !res.OK {
			return StatusMiss
		}
		return StatusOK
	case errors.Is(res.Err, ErrOverloaded):
		return StatusOverloaded
	case errors.Is(res.Err, ErrClosed):
		return StatusClosed
	case errors.Is(res.Err, core.ErrFull):
		return StatusFull
	case errors.Is(res.Err, core.ErrReservedKey):
		return StatusReserved
	case errors.Is(res.Err, context.DeadlineExceeded):
		return StatusDeadline
	case errors.Is(res.Err, context.Canceled):
		return StatusCancelled
	default:
		return StatusInternal
	}
}

// errOf is the client-side inverse of statusOf.
func errOf(status uint8) error {
	switch status {
	case StatusOK, StatusMiss:
		return nil
	case StatusOverloaded:
		return ErrOverloaded
	case StatusClosed:
		return ErrClosed
	case StatusFull:
		return core.ErrFull
	case StatusReserved:
		return core.ErrReservedKey
	case StatusDeadline:
		return context.DeadlineExceeded
	case StatusCancelled:
		return context.Canceled
	default:
		return fmt.Errorf("epoch: server reported status %d", status)
	}
}

// Serve accepts connections on l and relays their requests into s
// until ctx is done (or l is closed). It returns the first accept
// error (net.ErrClosed after a clean shutdown). Serve does not own s:
// closing the epoch server is the caller's shutdown step.
func Serve(ctx context.Context, l net.Listener, s *Server) error {
	stop := context.AfterFunc(ctx, func() { l.Close() })
	defer stop()
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			serveConn(ctx, conn, s)
		}()
	}
}

// inflight is one admitted (or locally refused) request awaiting its
// in-order response slot. cancel releases a timed request's deadline
// timer once its response is written (nil for untimed requests).
type inflight struct {
	id     uint64
	op     Op
	fut    *Future
	cancel context.CancelFunc
}

// serveConn relays one connection: a reader loop submits requests, a
// writer loop resolves futures in request order and streams responses.
func serveConn(ctx context.Context, conn net.Conn, s *Server) {
	defer conn.Close()
	connCtx, cancel := context.WithCancel(ctx)
	defer cancel() // sheds this connection's unflushed ops on exit

	// The queue bound only backpressures the reader against a slow
	// writer; admission control proper lives in Server.Submit. Requests
	// still queued when the connection ends have their deadline timers
	// released by the deferred connCtx cancel, their parent.
	queue := make(chan inflight, 256)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writeResponses(connCtx, conn, queue)
	}()

	br := bufio.NewReader(conn)
	var frame [reqFrameLen]byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			break // EOF or a torn frame: either way the conversation is over
		}
		id := binary.LittleEndian.Uint64(frame[0:8])
		op := Op(frame[8])
		key := binary.LittleEndian.Uint64(frame[9:17])
		timeoutUs := binary.LittleEndian.Uint32(frame[17:21])

		reqCtx := connCtx
		var reqCancel context.CancelFunc
		if timeoutUs > 0 {
			reqCtx, reqCancel = context.WithTimeout(connCtx, time.Duration(timeoutUs)*time.Microsecond)
		}
		fut, err := s.Submit(reqCtx, op, key)
		if err != nil {
			fut = resolved(Result{Err: err})
		}
		select {
		case queue <- inflight{id: id, op: op, fut: fut, cancel: reqCancel}:
		case <-connCtx.Done():
		}
		if connCtx.Err() != nil {
			break
		}
	}
	cancel()
	wg.Wait()
}

// writeResponses drains the in-flight queue in order, waiting each
// future and framing its result.
func writeResponses(ctx context.Context, conn net.Conn, queue <-chan inflight) {
	bw := bufio.NewWriter(conn)
	for {
		var in inflight
		select {
		case in = <-queue:
		case <-ctx.Done():
			// Flush what's written, then drain without blocking forever:
			// remaining futures resolve during server drain or were shed.
			bw.Flush()
			return
		}
		res, err := in.fut.Wait(ctx)
		if in.cancel != nil {
			// The future already carries the outcome (or the connection
			// is ending), so this cancel cannot shed the request.
			in.cancel()
		}
		if err != nil {
			bw.Flush()
			return
		}
		if writeResponse(bw, in, res) != nil {
			return
		}
		// Flush when no response is immediately pending, so pipelined
		// bursts coalesce but a lone response is not held hostage.
		if len(queue) == 0 {
			if bw.Flush() != nil {
				return
			}
		}
	}
}

// writeResponse frames one resolved result onto the buffered writer.
func writeResponse(bw *bufio.Writer, in inflight, res Result) error {
	var hdr [respFrameLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], in.id)
	hdr[8] = statusOf(res, in.op)
	binary.LittleEndian.PutUint64(hdr[9:17], res.Value)
	var elems []uint64
	if in.op == OpElements && res.Err == nil {
		elems = res.Elems
	}
	binary.LittleEndian.PutUint32(hdr[17:21], uint32(len(elems)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var word [8]byte
	for _, e := range elems {
		binary.LittleEndian.PutUint64(word[:], e)
		if _, err := bw.Write(word[:]); err != nil {
			return err
		}
	}
	return nil
}

// Client is a pipelined client for a served epoch Server. Safe for
// concurrent use; responses are matched to calls by request id.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*ClientFuture
	err     error // sticky transport error
	closed  bool

	readerDone chan struct{}
}

// ClientFuture resolves to a remote operation's response.
type ClientFuture struct {
	status uint8
	value  uint64
	elems  []uint64
	err    error
	done   chan struct{}
}

// Done returns a channel closed when the response (or a transport
// failure) is available.
func (f *ClientFuture) Done() <-chan struct{} { return f.done }

// Result returns the remote result after Done is closed. Value and OK
// mirror the server-side Result; Err is the decoded remote error or
// the transport error that killed the connection.
func (f *ClientFuture) Result() Result {
	if f.err != nil {
		return Result{Err: f.err}
	}
	return Result{Value: f.value, OK: f.status == StatusOK, Elems: f.elems, Err: errOf(f.status)}
}

// Dial connects a Client to a phserver address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:       conn,
		bw:         bufio.NewWriter(conn),
		pending:    make(map[uint64]*ClientFuture),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Do sends one operation with an optional per-request deadline
// (timeout <= 0 means none) and returns its future. The send is
// buffered; Do flushes, so every call is visible to the server without
// further action.
func (c *Client) Do(op Op, key uint64, timeout time.Duration) (*ClientFuture, error) {
	timeoutUs := int64(0)
	if timeout > 0 {
		timeoutUs = int64(timeout / time.Microsecond)
		if timeoutUs <= 0 {
			timeoutUs = 1
		}
		if timeoutUs > int64(^uint32(0)) {
			timeoutUs = int64(^uint32(0))
		}
	}
	f := &ClientFuture{done: make(chan struct{})}

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = f
	var frame [reqFrameLen]byte
	binary.LittleEndian.PutUint64(frame[0:8], id)
	frame[8] = byte(op)
	binary.LittleEndian.PutUint64(frame[9:17], key)
	binary.LittleEndian.PutUint32(frame[17:21], uint32(timeoutUs))
	_, err := c.bw.Write(frame[:])
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		delete(c.pending, id)
		c.fail(err)
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Unlock()
	return f, nil
}

// Call is Do + wait: one synchronous round trip.
func (c *Client) Call(op Op, key uint64, timeout time.Duration) (Result, error) {
	f, err := c.Do(op, key, timeout)
	if err != nil {
		return Result{}, err
	}
	<-f.Done()
	res := f.Result()
	return res, nil
}

// Close tears down the connection; outstanding futures resolve with
// the transport error.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// fail marks the transport dead and resolves all pending futures with
// err. Callers must hold c.mu.
func (c *Client) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	for id, f := range c.pending {
		f.err = c.err
		close(f.done)
		delete(c.pending, id)
	}
}

// readLoop decodes response frames and resolves pending futures.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReader(c.conn)
	var hdr [respFrameLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			c.mu.Lock()
			c.fail(err)
			c.mu.Unlock()
			return
		}
		id := binary.LittleEndian.Uint64(hdr[0:8])
		status := hdr[8]
		value := binary.LittleEndian.Uint64(hdr[9:17])
		nelems := binary.LittleEndian.Uint32(hdr[17:21])
		var elems []uint64
		if nelems > 0 {
			if nelems > maxWireElems {
				c.mu.Lock()
				c.fail(fmt.Errorf("epoch: response claims %d elements", nelems))
				c.mu.Unlock()
				return
			}
			elems = make([]uint64, nelems)
			var word [8]byte
			for i := range elems {
				if _, err := io.ReadFull(br, word[:]); err != nil {
					c.mu.Lock()
					c.fail(err)
					c.mu.Unlock()
					return
				}
				elems[i] = binary.LittleEndian.Uint64(word[:])
			}
		}
		c.mu.Lock()
		f, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ok {
			f.status = status
			f.value = value
			f.elems = elems
			close(f.done)
		}
	}
}
