package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"
)

// sample is one window's timing, in nanoseconds since the run's epoch.
// write/wait are recorded only on a traced run.
type sample struct {
	start int64 // before the window's Write
	end   int64 // last reply of the window parsed
	write int64 // Write returned, relative to start
	wait  int64 // first reply line parsed, relative to start
}

// client drives one connection: one Write per window, ReadSlice per
// reply line, every reply checked against the stream's expectation.
type client struct {
	id   int
	conn net.Conn
	rd   *bufio.Reader
	s    *stream

	win     int // next window of the stream
	line    int // next expectation
	exactAt int // next exact value
	wraps   int

	samples   []sample // preallocated; one per window while recording
	attempted int64    // command lines sent
	failed    int64    // command lines whose reply was wrong or missing
	firstErr  string
}

func dial(addr string, id int, s *stream) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{id: id, conn: conn, rd: bufio.NewReaderSize(conn, 64<<10), s: s}, nil
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf("conn %d window %d: ", c.id, c.win) + fmt.Sprintf(format, args...)
	}
}

var errShort = errors.New("short or empty reply line")

// readLine returns one reply line without its terminator.
func (c *client) readLine() ([]byte, error) {
	b, err := c.rd.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	b = b[:len(b)-1]
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	if len(b) == 0 {
		return nil, errShort
	}
	return b, nil
}

func isInt(b []byte) bool {
	return b[0] >= '0' && b[0] <= '9' || b[0] == '-' && len(b) > 1
}

// parseInt reads a signed decimal without allocating; ok is false on
// anything else.
func parseInt(b []byte) (v int64, ok bool) {
	neg := false
	if b[0] == '-' {
		neg, b = true, b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		v = v*10 + int64(d-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// check consumes the reply to one command line.
func (c *client) check(exp byte) error {
	b, err := c.readLine()
	if err != nil {
		return err
	}
	ok := false
	switch exp {
	case expInt:
		ok = isInt(b)
	case expOK:
		ok = b[0] == 'O'
	case expOKFull:
		ok = b[0] == 'O' || b[0] == 'F'
	case expVal:
		ok = isInt(b) || b[0] == 'E' && len(b) > 1 && b[1] == 'M'
	case expQueued:
		ok = b[0] == '+'
	case expExact:
		want := c.s.exact[c.exactAt]
		c.exactAt++
		got, isNum := parseInt(b)
		if ok = isNum && got == want; !ok {
			c.fail("canary reply %q, want %d", b, want)
			return nil
		}
	case expExec:
		n, isNum := int64(0), false
		if b[0] == '*' && len(b) > 1 {
			n, isNum = parseInt(b[1:])
		}
		if !isNum {
			c.fail("EXEC reply %q", b)
			return nil
		}
		ok = true
		for ; n > 0; n-- {
			if b, err = c.readLine(); err != nil {
				return err
			}
			ok = ok && isInt(b)
		}
	}
	if !ok {
		c.fail("reply %q does not fit expectation %d", b, exp)
	}
	return nil
}

// window sends the next window and reads its replies. now is the run's
// clock; rec tells whether to keep a sample, traced whether to take the
// two inner timestamps.
func (c *client) window(now func() int64, rec, traced bool) error {
	s := c.s
	if c.win == s.windows() {
		c.win, c.line, c.exactAt = 0, 0, 0
		c.wraps++
	}
	buf := s.cmds[s.winOff[c.win]:s.winOff[c.win+1]]
	var sm sample
	sm.start = now()
	c.attempted += int64(s.depth)
	if _, err := c.conn.Write(buf); err != nil {
		c.failed += int64(s.depth)
		return fmt.Errorf("conn %d write: %w", c.id, err)
	}
	if traced {
		sm.write = now() - sm.start
	}
	for i := 0; i < s.depth; i++ {
		if err := c.check(s.exp[c.line+i]); err != nil {
			c.failed += int64(s.depth - i)
			return fmt.Errorf("conn %d read: %w", c.id, err)
		}
		if traced && i == 0 {
			sm.wait = now() - sm.start
		}
	}
	sm.end = now()
	c.line += s.depth
	c.win++
	if rec && len(c.samples) < cap(c.samples) {
		c.samples = append(c.samples, sm)
	}
	return nil
}

// sendAll sends the whole stream once, untimed (preload).
func (c *client) sendAll() error {
	for c.win < c.s.windows() {
		if err := c.window(func() int64 { return 0 }, false, false); err != nil {
			return err
		}
	}
	return nil
}

// control is a plain request/reply connection for STATS, TXSTATS, SAVE
// and the end-of-run reads; it is never on a timed path except SAVE's.
type control struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dialControl(addr string) (*control, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &control{conn: conn, rd: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *control) close() { c.conn.Close() }

// send writes raw command bytes and returns n reply lines.
func (c *control) send(cmds []byte, n int) ([]string, error) {
	c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.conn.Write(cmds); err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for len(out) < n {
		b, err := c.rd.ReadSlice('\n')
		if err != nil {
			return out, err
		}
		out = append(out, string(bytes.TrimRight(b, "\r\n")))
	}
	return out, nil
}

// one sends a single command and returns its one-line reply.
func (c *control) one(cmd string) (string, error) {
	r, err := c.send([]byte(cmd+"\n"), 1)
	if err != nil {
		return "", fmt.Errorf("%s: %w", cmd, err)
	}
	return r[0], nil
}

// stats returns the STATS body (lines up to END).
func (c *control) stats() (string, error) {
	c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.conn.Write([]byte("STATS\n")); err != nil {
		return "", err
	}
	var body bytes.Buffer
	for {
		b, err := c.rd.ReadSlice('\n')
		if err != nil {
			return "", fmt.Errorf("STATS: %w", err)
		}
		if string(bytes.TrimRight(b, "\r\n")) == "END" {
			return body.String(), nil
		}
		body.Write(b)
	}
}
