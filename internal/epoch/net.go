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
// latency). timeout_us is the per-request deadline, counted from
// admission; 0 means none. Admission refusals (StatusOverloaded,
// StatusClosed, StatusBadOp for an op code above OpElements, ...) use
// the same response frames, so an overloaded server degrades into
// explicit per-request shed signals, never into dropped bytes or
// stalled connections.
//
// The server reads in batches: every whole frame in its read buffer is
// admitted at once, and the batch is answered in one pass once all its
// ops have resolved.

import (
	"bufio"
	"context"
	"encoding/binary"
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
	StatusBadOp                   // unknown op code, refused at admission
)

const (
	reqFrameLen  = 21
	respFrameLen = 21
	// readBufLen is serveConn's read buffer: one wire read admits every
	// whole frame it holds (at most 195) as one batch.
	readBufLen = 4096
	// maxWireElems bounds an OpElements payload a client will accept
	// (defense against a corrupt length header, not a protocol limit).
	maxWireElems = 1 << 28
	// elemChunk is, in words, what a client reserves for a payload
	// before its first word arrives.
	elemChunk = 1 << 12
)

// putFrame encodes one request frame into f (batch.op, key and timeout
// decode it).
func putFrame(f []byte, id uint64, op Op, key uint64, timeoutUs uint32) {
	binary.LittleEndian.PutUint64(f[0:8], id)
	f[8] = byte(op)
	binary.LittleEndian.PutUint64(f[9:17], key)
	binary.LittleEndian.PutUint32(f[17:21], timeoutUs)
}

// errOf maps a wire status to the error a Result carries.
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
	case StatusBadOp:
		return ErrBadOp
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

// serveConn relays one connection: the reader admits each read's whole
// frames as one batch, and a writer answers the batches in order.
func serveConn(ctx context.Context, conn net.Conn, s *Server) {
	defer conn.Close()
	connCtx, cancel := context.WithCancel(ctx)
	defer cancel() // sheds this connection's unflushed ops on exit
	// Closing the connection as soon as its context ends unblocks a
	// reader parked on an idle client and a writer stuck on a client
	// that never reads, so Serve returns once its ctx is done.
	stop := context.AfterFunc(connCtx, func() { conn.Close() })
	defer stop()

	// The backlog only holds the reader back from a writer that cannot
	// keep up; admission control proper lives in Server.admit.
	bl := &backlog{limit: s.cfg.QueueLimit, ready: make(chan struct{}, 1), room: make(chan struct{}, 1)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer cancel() // a failed write ends the conversation
		writeResponses(connCtx, conn, bl)
	}()

	br := bufio.NewReaderSize(conn, readBufLen)
	for connCtx.Err() == nil {
		if _, err := br.Peek(reqFrameLen); err != nil {
			break // EOF or a torn frame: either way the conversation is over
		}
		b := newBatch(connCtx, br.Buffered()/reqFrameLen)
		if _, err := io.ReadFull(br, b.frames); err != nil {
			break
		}
		s.admit(b)
		if !bl.push(connCtx, b) {
			break
		}
	}
	cancel()
	wg.Wait()
}

// backlog is one connection's admitted, unanswered batches, bounded in
// ops (QueueLimit) rather than in batches, so a client that writes one
// frame at a time can keep as many requests in flight as admission
// allows.
type backlog struct {
	mu    sync.Mutex
	q     []*batch
	ops   int // ops in batches pushed and not yet answered
	limit int
	ready chan struct{} // one token: q became non-empty
	room  chan struct{} // one token: ops fell
}

// push appends b once its ops fit (an empty backlog takes any batch),
// or reports false when ctx is done first.
func (bl *backlog) push(ctx context.Context, b *batch) bool {
	n := len(b.status)
	for {
		bl.mu.Lock()
		if bl.ops == 0 || bl.ops+n <= bl.limit {
			bl.q = append(bl.q, b)
			bl.ops += n
			bl.mu.Unlock()
			notify(bl.ready)
			return true
		}
		bl.mu.Unlock()
		select {
		case <-bl.room:
		case <-ctx.Done():
			return false
		}
	}
}

// take swaps the queued batches out for dst's (emptied) storage.
func (bl *backlog) take(dst []*batch) []*batch {
	bl.mu.Lock()
	dst, bl.q = bl.q, dst[:0]
	bl.mu.Unlock()
	return dst
}

// answered releases n answered ops.
func (bl *backlog) answered(n int) {
	bl.mu.Lock()
	bl.ops -= n
	bl.mu.Unlock()
	notify(bl.room)
}

// notify drops a token into a one-slot channel unless one is waiting.
func notify(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// writeResponses answers the backlog's batches in order: one wait per
// batch, then all of its responses framed in one pass. The buffer is
// flushed only before the writer blocks, so pipelined bursts coalesce
// but no response is held hostage.
func writeResponses(ctx context.Context, conn net.Conn, bl *backlog) {
	bw := bufio.NewWriter(conn)
	var q []*batch
	for {
		q = bl.take(q)
		if len(q) == 0 {
			if bw.Flush() != nil {
				return
			}
			select {
			case <-bl.ready:
				continue
			case <-ctx.Done():
				return
			}
		}
		for k, b := range q {
			select {
			case <-b.done:
			default:
				if bw.Flush() != nil {
					return
				}
				select {
				case <-b.done:
				case <-ctx.Done():
					// Unanswered batches still resolve: the flusher sheds
					// this connection's ops once its context is done.
					return
				}
			}
			if writeBatch(bw, b) != nil {
				return
			}
			bl.answered(len(b.status))
			q[k] = nil
		}
	}
}

// writeBatch frames a resolved batch's responses straight into bw's
// buffer.
func writeBatch(bw *bufio.Writer, b *batch) error {
	for i, st := range b.status {
		var value uint64
		var elems []uint64
		if st == StatusOK {
			switch b.op(i) {
			case OpFind:
				value = b.key(i)
			case OpElements:
				elems = b.snapshot(i)
			}
		}
		if bw.Available() < respFrameLen {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		p := append(bw.AvailableBuffer(), b.frames[i*reqFrameLen:i*reqFrameLen+8]...) // the request id
		p = append(p, st)
		p = binary.LittleEndian.AppendUint64(p, value)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(elems)))
		if _, err := bw.Write(p); err != nil {
			return err
		}
		for _, e := range elems {
			if bw.Available() < 8 {
				if err := bw.Flush(); err != nil {
					return err
				}
			}
			if _, err := bw.Write(binary.LittleEndian.AppendUint64(bw.AvailableBuffer(), e)); err != nil {
				return err
			}
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
	return newClient(conn), nil
}

// newClient starts a Client over an open connection.
func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:       conn,
		bw:         bufio.NewWriter(conn),
		pending:    make(map[uint64]*ClientFuture),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
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
	putFrame(frame[:], id, op, key, uint32(timeoutUs))
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
			var err error
			if elems, err = readElems(br, int(nelems)); err != nil {
				c.mu.Lock()
				c.fail(err)
				c.mu.Unlock()
				return
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

// readElems reads an n-word payload. The slice starts at no more than
// elemChunk words and grows by append as words arrive, so a corrupt
// length header costs a bounded reservation rather than an n-word
// allocation.
func readElems(br *bufio.Reader, n int) ([]uint64, error) {
	elems := make([]uint64, 0, min(n, elemChunk))
	var word [8]byte
	for len(elems) < n {
		if _, err := io.ReadFull(br, word[:]); err != nil {
			return nil, err
		}
		elems = append(elems, binary.LittleEndian.Uint64(word[:]))
	}
	return elems, nil
}
