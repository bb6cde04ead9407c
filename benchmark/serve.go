package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"phasehash/internal/epoch"
	"phasehash/internal/hashx"
)

// serve-loopback drives cmd/phserver, as shipped and with its defaults,
// in a child process; this process is the load generator, on two TCP
// connections. Each connection has a writer that sends every request due
// at each wake-up and a reader that times each response from the
// request's due time, so generator stalls count against latency. Sample
// and frame buffers are allocated before a phase starts.

const (
	serveConns = 2
	// serveWindow is each connection's outstanding-request bound in the
	// saturated phase: two windows fill phserver's 4096-op epochs without
	// reaching its default admission limit (16384), so nothing is shed.
	serveWindow = 4096
	lowRate     = 20000  // requests/s: about a tenth of loopback saturation on 2 cores
	highRate    = 100000 // requests/s: about half of it
	reqLen      = 21     // request frame: id u64 | op u8 | key u64 | timeout_us u32
	respLen     = 21     // response frame: id u64 | status u8 | value u64 | nelems u32
)

// phase returns the first request id of phase k. Each phase of a run has
// its own id range, so a response can never be taken for another
// phase's.
func phase(k int) uint64 { return uint64(k+1) << 40 }

// server is a running phserver child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	log    *lineLog
	exited chan struct{}
	err    error // cmd.Wait's result, valid after exited is closed
}

// lineLog collects the child's standard error and reports the listen
// address from its start-up line.
type lineLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // receives the address once
	sent bool
}

func (l *lineLog) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(b)
	if !l.sent {
		if _, rest, ok := strings.Cut(l.buf.String(), "phserver: serving on "); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				l.addr <- addr
				l.sent = true
			}
		}
	}
	return len(b), nil
}

func (l *lineLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startServer execs phserver on a free loopback port and waits for its
// start-up line.
func startServer(bin string) (*server, error) {
	log := &lineLog{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = log
	// The kernel kills the server if this process dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting phserver: %w", err)
	}
	s := &server{cmd: cmd, log: log, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-log.addr:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("phserver exited before listening (%v): %s", s.err, log)
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("phserver did not start listening within 30s")
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// stop sends SIGTERM, which makes phserver drain, and returns its drain
// report line.
func (s *server) stop() (string, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return "", fmt.Errorf("stopping phserver: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(40 * time.Second):
		s.kill()
		return "", errors.New("phserver did not drain within 40s")
	}
	if s.err != nil {
		return "", fmt.Errorf("phserver: %v: %s", s.err, s.log)
	}
	for _, line := range strings.Split(s.log.String(), "\n") {
		if strings.HasPrefix(line, "phserver: drained;") {
			return line, nil
		}
	}
	return "", fmt.Errorf("phserver printed no drain report: %s", s.log)
}

// rssBytes reads the server's resident set size.
func (s *server) rssBytes() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// drainField returns an integer field ("count=123") of a drain report.
func drainField(line, name string) (float64, error) {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, name+"="); ok {
			return strconv.ParseFloat(strings.TrimSuffix(v, ")"), 64)
		}
	}
	return 0, fmt.Errorf("drain report has no %s: %q", name, line)
}

// load is the request stream: request id determines op and key, so the
// generator and the oracles need no per-request state.
type load struct {
	seed     uint64
	keySpace uint64
}

// req returns request id's op (50% insert, 25% find, 25% delete) and key
// in [1, keySpace].
func (l load) req(id uint64) (epoch.Op, uint64) {
	h := hashx.At(l.seed, int(id))
	op := [4]epoch.Op{epoch.OpInsert, epoch.OpInsert, epoch.OpFind, epoch.OpDelete}[h&3]
	return op, 1 + (h>>2)%l.keySpace
}

// check validates one response: every status is OK or, for a find, Miss;
// a found key comes back as itself. refused reports a status the
// server may legitimately return under load (a failed, not a wrong,
// operation).
func (l load) check(id uint64, status uint8, value uint64, nelems uint32) (wrong, refused bool) {
	op, key := l.req(id)
	switch {
	case nelems != 0:
		return true, false
	case status == epoch.StatusOK:
		return op == epoch.OpFind && value != key, false
	case status == epoch.StatusMiss:
		return op != epoch.OpFind || value != 0, false
	case status == epoch.StatusOverloaded || status == epoch.StatusDeadline:
		return false, true
	default:
		return true, false
	}
}

func putReq(b []byte, id uint64, op epoch.Op, key uint64) {
	binary.LittleEndian.PutUint64(b[0:8], id)
	b[8] = byte(op)
	binary.LittleEndian.PutUint64(b[9:17], key)
	binary.LittleEndian.PutUint32(b[17:21], 0)
}

// tally is one connection's (or phase's) response accounting.
type tally struct {
	n, wrong, refused int
	firstErr          string
}

func (t *tally) add(o tally) {
	t.n += o.n
	t.wrong += o.wrong
	t.refused += o.refused
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

func (t *tally) record(wrong, refused bool, id uint64) {
	t.n++
	if wrong {
		t.wrong++
		if t.firstErr == "" {
			t.firstErr = fmt.Sprintf("request %d got a wrong response", id)
		}
	}
	if refused {
		t.refused++
	}
}

// account adds a measured phase's tally to the run.
func (p *pass) account(name string, t tally) {
	p.attempt(t.n)
	p.failed += int64(t.refused)
	p.expect(t.wrong == 0, t.wrong, "serve %s: %d wrong responses (%s)", name, t.wrong, t.firstErr)
}

// openResult is one open-loop phase's outcome.
type openResult struct {
	lat     []float64 // ms from each request's due time to its response
	lateMax time.Duration
	tally   tally
}

// openLoop sends rate requests/s for d over the connections, request g
// of the phase due at start + g/rate on connection g%2, and waits for
// every response.
func openLoop(conns []net.Conn, l load, base uint64, rate float64, d time.Duration, tr *tracer, parent int) (openResult, error) {
	period := time.Duration(float64(time.Second) / rate)
	total := int(rate * d.Seconds())
	start := time.Now().Add(time.Millisecond)
	due := func(g int) time.Time { return start.Add(time.Duration(g) * period) }
	lats := make([][]float64, len(conns))
	late := make([]time.Duration, len(conns))
	tallies := make([]tally, len(conns))
	errs := make([]error, 2*len(conns))
	var wg sync.WaitGroup
	for c, conn := range conns {
		m := (total - c + len(conns) - 1) / len(conns) // requests c, c+2, ... below total
		lats[c] = make([]float64, m)
		buf := make([]byte, 0, reqLen*max(64, int(rate/20)))
		conn.SetReadDeadline(start.Add(d + 30*time.Second))
		wg.Add(2)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			for j := 0; j < m; {
				now := time.Now()
				g := 2*j + c
				if now.Before(due(g)) {
					time.Sleep(due(g).Sub(now))
					continue
				}
				late[c] = max(late[c], now.Sub(due(g)))
				last := int(now.Sub(start) / period) // the latest due request index
				buf = buf[:0]
				for ; j < m && 2*j+c <= last && len(buf)+reqLen <= cap(buf); j++ {
					id := base + uint64(2*j+c)
					op, key := l.req(id)
					buf = buf[:len(buf)+reqLen]
					putReq(buf[len(buf)-reqLen:], id, op, key)
				}
				if _, err := conn.Write(buf); err != nil {
					errs[2*c] = err
					return
				}
			}
		}(c, conn)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			br := bufio.NewReaderSize(conn, 64<<10)
			var hdr [respLen]byte
			for j := 0; j < m; j++ {
				if _, err := io.ReadFull(br, hdr[:]); err != nil {
					errs[2*c+1] = err
					return
				}
				now := time.Now()
				g := 2*j + c
				id := binary.LittleEndian.Uint64(hdr[0:8])
				wrong, refused := l.check(id, hdr[8], binary.LittleEndian.Uint64(hdr[9:17]), binary.LittleEndian.Uint32(hdr[17:21]))
				tallies[c].record(wrong || id != base+uint64(g), refused, id)
				lats[c][j] = now.Sub(due(g)).Seconds() * 1e3
				if j%16 == 0 {
					tr.record("wire:request", parent, 1, due(g), now)
				}
			}
		}(c, conn)
	}
	wg.Wait()
	var r openResult
	for c := range conns {
		r.lat = append(r.lat, lats[c]...)
		r.lateMax = max(r.lateMax, late[c])
		r.tally.add(tallies[c])
	}
	return r, errors.Join(errs...)
}

// satSlices is how many slices saturated throughput is sampled in; the
// reported throughput is the median slice, so a stall of the shared
// machine moves few samples.
const satSlices = 30

// saturate keeps serveWindow requests outstanding on each connection for
// d and returns the throughput (Mop/s) of each slice of d but the first,
// and the tally of all responses.
func saturate(conns []net.Conn, l load, base uint64, d time.Duration) ([]float64, tally, error) {
	start := time.Now()
	deadline := start.Add(d)
	satSlice := d / satSlices
	tallies := make([]tally, len(conns))
	inTime := make([][]int, len(conns))
	errs := make([]error, 2*len(conns))
	var wg sync.WaitGroup
	for c, conn := range conns {
		conn.SetReadDeadline(deadline.Add(30 * time.Second))
		inTime[c] = make([]int, satSlices)
		var sent, recv atomic.Int64
		wake := make(chan struct{}, 1) // reader → writer: the window has room
		poke := make(chan struct{}, 1) // writer → reader: more requests are out
		done := make(chan struct{})    // writer sent its last request
		gone := make(chan struct{})    // reader stopped reading
		buf := make([]byte, 0, reqLen*512)
		wg.Add(2)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			defer close(done)
			next := uint64(0)
			for time.Now().Before(deadline) {
				room := serveWindow - int(sent.Load()-recv.Load())
				if room <= 0 {
					select {
					case <-wake:
					case <-gone:
						return
					}
					continue
				}
				buf = buf[:0]
				for ; room > 0 && len(buf)+reqLen <= cap(buf); room-- {
					id := base + 2*next + uint64(c)
					op, key := l.req(id)
					buf = buf[:len(buf)+reqLen]
					putReq(buf[len(buf)-reqLen:], id, op, key)
					next++
				}
				sent.Add(int64(len(buf) / reqLen))
				if _, err := conn.Write(buf); err != nil {
					errs[2*c] = err
					return
				}
				select {
				case poke <- struct{}{}:
				default:
				}
			}
		}(c, conn)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			defer close(gone)
			br := bufio.NewReaderSize(conn, 64<<10)
			var hdr [respLen]byte
			for {
				if recv.Load() == sent.Load() {
					select {
					case <-done:
						if recv.Load() == sent.Load() {
							return
						}
					case <-poke:
					}
					continue
				}
				if _, err := io.ReadFull(br, hdr[:]); err != nil {
					errs[2*c+1] = err
					return
				}
				if k := int(time.Since(start) / satSlice); k < satSlices {
					inTime[c][k]++
				}
				want := base + 2*uint64(recv.Load()) + uint64(c)
				id := binary.LittleEndian.Uint64(hdr[0:8])
				wrong, refused := l.check(id, hdr[8], binary.LittleEndian.Uint64(hdr[9:17]), binary.LittleEndian.Uint32(hdr[17:21]))
				tallies[c].record(wrong || id != want, refused, id)
				recv.Add(1)
				if br.Buffered() < respLen {
					select {
					case wake <- struct{}{}:
					default:
					}
				}
			}
		}(c, conn)
	}
	wg.Wait()
	var t tally
	for c := range conns {
		t.add(tallies[c])
	}
	// The first slice fills the windows; it is not a steady-state sample.
	rates := make([]float64, 0, satSlices)
	for k := 1; k < satSlices; k++ {
		n := 0
		for c := range conns {
			n += inTime[c][k]
		}
		rates = append(rates, float64(n)/satSlice.Seconds()/1e6)
	}
	return rates, t, errors.Join(errs...)
}

// roundTrip sends one find and waits for its response: the set-up
// probe that the server is serving.
func roundTrip(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	var b [reqLen]byte
	putReq(b[:], 1, epoch.OpFind, 1)
	if _, err := conn.Write(b[:]); err != nil {
		return err
	}
	var r [respLen]byte
	if _, err := io.ReadFull(conn, r[:]); err != nil {
		return err
	}
	if r[8] != epoch.StatusMiss {
		return fmt.Errorf("find on an empty server returned status %d", r[8])
	}
	return nil
}

func runServeLoopback(p *pass) error {
	if p.cfg.phserver == "" {
		return errors.New("serve-loopback needs -phserver (run.sh builds it)")
	}
	l := load{seed: p.cfg.seed, keySpace: uint64(p.cfg.size(1<<18, 1<<10))}
	var srv *server
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	// Set-up is exec to the first successful round trip, taken over seven
	// starts; the last server started is the one measured.
	var setups []float64
	for i := 0; i < 7; i++ {
		if srv != nil {
			if _, err := srv.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(p.cfg.phserver); err != nil {
			return err
		}
		if err := roundTrip(srv.addr); err != nil {
			return fmt.Errorf("first round trip: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	conns := make([]net.Conn, serveConns)
	for c := range conns {
		conn, err := net.Dial("tcp", srv.addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		conns[c] = conn
	}
	budget := p.cfg.budget()

	warm, err := openLoop(conns, l, phase(0), lowRate, budget/10, nil, 0)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	p.expect(warm.tally.wrong == 0, warm.tally.wrong, "serve warm-up: %s", warm.tally.firstErr)
	// Spans are recorded from here on in a traced run, which also runs the
	// high phase once more without them, just before the traced one, for
	// the tracing overhead.
	tr := p.tracer
	p.tr = tr
	var open [2]openResult
	var plainHigh openResult
	for i, rate := range []float64{lowRate, highRate} {
		name := [2]string{"low", "high"}[i]
		if tr != nil && i == 1 {
			if plainHigh, err = openLoop(conns, l, phase(5), rate, 3*budget/10, nil, 0); err != nil {
				return fmt.Errorf("untraced high phase: %w", err)
			}
			p.account("untraced high", plainHigh.tally)
		}
		id := tr.begin("bench:phase:"+name, 0, 0)
		open[i], err = openLoop(conns, l, phase(1+i), rate, 3*budget/10, tr, id)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s phase: %w", name, err)
		}
		p.account(name, open[i].tally)
		r := open[i]
		p.note("serve_p50_ms."+name, median(r.lat))
		p.note("serve_p99_ms."+name, quantile(r.lat, 0.99))
		p.note("serve.samples."+name, float64(len(r.lat)))
		p.note("serve.late_max_ms."+name, r.lateMax.Seconds()*1e3)
	}
	id := tr.begin("bench:phase:saturated", 0, 0)
	satDur := 3 * budget / 10
	satRates, sat, err := saturate(conns, l, phase(3), satDur)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("saturated phase: %w", err)
	}
	p.account("saturated", sat)
	rss, err := srv.rssBytes()
	if err != nil {
		return fmt.Errorf("reading the server's memory: %w", err)
	}

	var doLat []float64
	if tr != nil {
		if doLat, err = clientDo(p, srv.addr, l, phase(4), budget/10); err != nil {
			return err
		}
	}
	for _, conn := range conns {
		conn.Close()
	}
	report, err := srv.stop()
	srv = nil
	if err != nil {
		return err
	}
	live, err := drainField(report, "count")
	if err != nil {
		return err
	}
	epochs, err := drainField(report, "epochs")
	if err != nil {
		return err
	}
	ops, err := drainField(report, "ops")
	if err != nil {
		return err
	}

	p.addMedian("setup_s", setups)
	p.addMedian("throughput_mops", satRates)
	p.add("latency_ms", median(open[0].lat), len(open[0].lat))
	p.add("bytes_per_key", rss/live, 1)
	p.note("server.rss_mb", rss/(1<<20))
	p.note("server.live_keys", live)
	p.note("server.mean_batch", ops/epochs)

	if tr == nil {
		return nil
	}
	p.add("trace.overhead_frac", median(open[1].lat)/median(plainHigh.lat)-1, len(open[1].lat))
	p.note("wire.do_p50_us", median(doLat))
	p.note("wire.do_p99_us", quantile(doLat, 0.99))
	return serveLayers(p, l, open, budget)
}

// clientDo times epoch.Client.Do, which writes and flushes one request
// per call, at the low rate for d.
func clientDo(p *pass, addr string, l load, base uint64, d time.Duration) ([]float64, error) {
	cl, err := epoch.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	n := int(lowRate * d.Seconds())
	lat := make([]float64, 0, n)
	futs := make([]*epoch.ClientFuture, 0, n)
	period := time.Second / lowRate
	start := time.Now()
	for i := 0; i < n; i++ {
		if wait := time.Until(start.Add(time.Duration(i) * period)); wait > 0 {
			time.Sleep(wait)
		}
		op, key := l.req(base + uint64(i))
		var f *epoch.ClientFuture
		d := p.tr.call("wire:Client.Do", 0, 1, func() { f, err = cl.Do(op, key, 0) })
		if err != nil {
			return nil, fmt.Errorf("Client.Do: %w", err)
		}
		lat = append(lat, d.Seconds()*1e6)
		futs = append(futs, f)
	}
	var t tally
	for i, f := range futs {
		<-f.Done()
		res := f.Result()
		id := base + uint64(i)
		op, key := l.req(id)
		wrong := res.Err != nil || (op == epoch.OpFind && res.OK && res.Value != key)
		t.record(wrong, false, id)
	}
	p.account("Client.Do", t)
	return lat, nil
}
