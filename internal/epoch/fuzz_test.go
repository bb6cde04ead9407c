package epoch

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"phasehash/internal/core"
)

// scriptConn is an in-memory net.Conn: reads wait for gate (when set),
// return a fixed byte stream in chunks of at most chunk bytes, then
// either EOF or (hold) block until Close; writes are collected.
type scriptConn struct {
	in     *bytes.Reader
	chunk  int
	hold   bool
	gate   chan struct{}
	closed chan struct{}
	once   sync.Once

	mu    sync.Mutex
	out   bytes.Buffer
	wrote chan struct{} // one token: out grew
}

func newScriptConn(in []byte, chunk int, hold bool) *scriptConn {
	return &scriptConn{in: bytes.NewReader(in), chunk: max(chunk, 1), hold: hold,
		closed: make(chan struct{}), wrote: make(chan struct{}, 1)}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.gate != nil {
		<-c.gate
	}
	if c.in.Len() > 0 {
		return c.in.Read(p[:min(len(p), c.chunk)])
	}
	if c.hold {
		<-c.closed
	}
	return 0, io.EOF
}

func (c *scriptConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	notify(c.wrote)
	return len(p), nil
}

func (c *scriptConn) output() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.out.Bytes())
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *scriptConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(t time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(t time.Time) error { return nil }

// parseResponses decodes the whole response frames in out.
func parseResponses(out []byte) []wireResponse {
	var resps []wireResponse
	r := bytes.NewReader(out)
	for {
		resp, err := readResponse(r)
		if err != nil {
			return resps
		}
		resps = append(resps, resp)
	}
}

// FuzzFrame feeds an arbitrary request byte stream into serveConn on a
// scripted-mode server and checks that every whole frame gets exactly
// one well-formed response, in request order, and a torn trailing frame
// none. The same bytes, read as a response stream, must not make a
// client's read loop panic or leave a call unresolved.
func FuzzFrame(f *testing.F) {
	var seed []byte
	seed = appendFrame(seed, 1, OpInsert, 5, 0)
	seed = appendFrame(seed, 2, OpFind, 5, 0)
	seed = appendFrame(seed, 3, OpElements, 0, 0)
	seed = appendFrame(seed, 4, OpDelete, 5, 1)
	seed = appendFrame(seed, 5, Op(9), 5, 0)
	seed = appendFrame(seed, 6, OpInsert, core.Empty, 0)
	f.Add(seed, uint8(0))
	f.Add(seed[:len(seed)-7], uint8(5))
	f.Add(appendFrame(nil, 7, OpElements, 0, 0), uint8(3))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 15}, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		serveScript(t, data, int(chunk))
		clientScript(t, data, int(chunk))
	})
}

// serveScript runs data through serveConn and checks the responses.
func serveScript(t *testing.T, data []byte, chunk int) {
	s := NewServer(Config{Size: 1 << 10, MaxBatch: 64, QueueLimit: 256})
	defer s.Close(context.Background())
	conn := newScriptConn(data, chunk, true)
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveConn(context.Background(), conn, s)
	}()

	whole := len(data) / reqFrameLen
	deadline := time.Now().Add(10 * time.Second)
	for len(parseResponses(conn.output())) < whole {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d whole frames answered", len(parseResponses(conn.output())), whole)
		}
		s.Flush()
		select {
		case <-conn.wrote:
		case <-time.After(time.Millisecond):
		}
	}
	s.Flush()
	conn.Close()
	<-served

	out := conn.output()
	resps := parseResponses(out)
	if len(resps) != whole {
		t.Fatalf("%d responses to %d whole frames", len(resps), whole)
	}
	consumed := 0
	for i, resp := range resps {
		consumed += respFrameLen + 8*len(resp.elems)
		b := &batch{frames: data[i*reqFrameLen : (i+1)*reqFrameLen]}
		op, key := b.op(0), b.key(0)
		if id := binary.LittleEndian.Uint64(b.frames); resp.id != id {
			t.Fatalf("response %d: id %d, want %d", i, resp.id, id)
		}
		var ok bool
		switch {
		case op > OpElements:
			ok = resp.status == StatusBadOp
		case op == OpInsert && key == core.Empty:
			ok = resp.status == StatusReserved
		default:
			switch resp.status {
			case StatusOK, StatusOverloaded, StatusDeadline:
				ok = true
			case StatusMiss:
				ok = op == OpFind
			case StatusFull:
				ok = op == OpInsert
			}
		}
		if !ok {
			t.Fatalf("response %d: op %v key %#x got status %d", i, op, key, resp.status)
		}
		wantValue := uint64(0)
		if op == OpFind && resp.status == StatusOK {
			wantValue = key
		}
		if resp.value != wantValue {
			t.Fatalf("response %d: op %v status %d value %#x, want %#x", i, op, resp.status, resp.value, wantValue)
		}
		if len(resp.elems) > 0 && (op != OpElements || resp.status != StatusOK) {
			t.Fatalf("response %d: op %v status %d carries %d elements", i, op, resp.status, len(resp.elems))
		}
	}
	if consumed != len(out) {
		t.Fatalf("%d trailing bytes after the last response", len(out)-consumed)
	}
}

// clientScript feeds data to a client as its response stream.
func clientScript(t *testing.T, data []byte, chunk int) {
	conn := newScriptConn(data, chunk, false)
	conn.gate = make(chan struct{})
	c := newClient(conn)
	// Register calls before the stream flows, so its ids can match them.
	var futs []*ClientFuture
	for i := 0; i < 3; i++ {
		f, err := c.Do(OpElements, 0, 0)
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		futs = append(futs, f)
	}
	close(conn.gate)
	<-c.readerDone
	for i, f := range futs {
		select {
		case <-f.Done():
			f.Result()
		default:
			t.Fatalf("call %d unresolved after the stream ended", i)
		}
	}
}
