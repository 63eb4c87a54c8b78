package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Conn is a bidirectional, message-oriented connection. Every Conn carries
// Binary frames, so the same rules hold in-process and over TCP.
type Conn interface {
	// Send writes one message. Safe for one concurrent sender. The message
	// is encoded before Send returns, so the sender may reuse its body, and
	// everything the body references, as soon as it does.
	Send(Message) error
	// Recv blocks for the next message; it returns io.EOF after the peer
	// closes. The message's Body is valid until the next Recv on this conn:
	// ratio, policy, upload, delivery, ack, census, census_batch and digest
	// frames decode into bodies the conn reuses, so a receiver that keeps
	// such a body (or a slice inside it) past its next Recv must copy it
	// first.
	Recv() (Message, error)
	// Close releases the connection; pending Recv calls unblock with
	// io.EOF.
	Close() error
}

// Listener accepts incoming connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr returns the address peers dial.
	Addr() string
}

// ErrClosed is returned by operations on a closed transport endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// MaxFrameBytes bounds a single wire frame (1 MiB), protecting both ends
// from corrupt length prefixes.
const MaxFrameBytes = 1 << 20

// --- In-process transport ---

// errPipeDeadline is an in-process conn's bounded receive running out.
var errPipeDeadline = fmt.Errorf("transport: receive deadline exceeded: %w", ErrTimeout)

// pipeEnd is one side of an in-memory duplex pair whose messages cross as
// Binary frames — byte-for-byte the TCP wire format minus the length prefix —
// in pooled buffers, and decode into the receiving side's own scratch, as on
// a TCP conn.
type pipeEnd struct {
	send chan<- *[]byte
	recv <-chan *[]byte

	rd      sync.Mutex // guards scratch
	scratch recvScratch

	closed chan struct{}
	once   sync.Once
	peer   *pipeEnd
}

// Pipe returns two connected in-process Conns. Each side's Send encodes the
// message and delivers the frame to the other's Recv with a small buffer;
// Close unblocks both sides. Oversized frames are rejected with
// ErrFrameTooLarge just like the TCP transport.
func Pipe() (Conn, Conn) {
	ab := make(chan *[]byte, 64)
	ba := make(chan *[]byte, 64)
	a := &pipeEnd{send: ab, recv: ba, closed: make(chan struct{})}
	b := &pipeEnd{send: ba, recv: ab, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *pipeEnd) Send(m Message) error {
	wm := wireObs.Load()
	bufp := framePool.Get().(*[]byte)
	frame, err := encodeFrame(wm, (*bufp)[:0], m)
	if err != nil {
		framePool.Put(bufp)
		return err
	}
	*bufp = frame
	// Check closure first: a ready buffered channel would otherwise race
	// the closed cases in a combined select.
	select {
	case <-c.closed:
	case <-c.peer.closed:
	default:
		select {
		case <-c.closed:
		case <-c.peer.closed:
		case c.send <- bufp:
			if wm != nil {
				wm.bytesSent.Add(int64(len(frame)))
			}
			return nil
		}
	}
	framePool.Put(bufp)
	return ErrClosed
}

func (c *pipeEnd) Recv() (Message, error) { return c.recvUntil(nil) }

// RecvWithin is Recv bounded by d (see RecvTimeout).
func (c *pipeEnd) RecvWithin(d time.Duration) (Message, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	return c.recvUntil(timer.C)
}

// recvUntil receives until expired fires; a nil expired never does.
func (c *pipeEnd) recvUntil(expired <-chan time.Time) (Message, error) {
	var bufp *[]byte
	select {
	case bufp = <-c.recv:
	case <-expired:
		return Message{}, errPipeDeadline
	case <-c.closed:
	case <-c.peer.closed:
	}
	if bufp == nil {
		// Closed: drain anything already queued before reporting EOF.
		select {
		case bufp = <-c.recv:
		default:
			return Message{}, io.EOF
		}
	}
	c.rd.Lock()
	defer c.rd.Unlock()
	c.scratch.release()
	wm := wireObs.Load()
	m, err := decodeFrame(&c.scratch, wm, *bufp)
	if wm != nil && err == nil {
		wm.bytesRecv.Add(int64(len(*bufp)))
	}
	framePool.Put(bufp)
	return m, err
}

func (c *pipeEnd) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// encodeFrame appends m's Binary encoding to dst, timed when wm is non-nil,
// and refuses a frame whose body — what it appended — exceeds MaxFrameBytes.
func encodeFrame(wm *wireInstruments, dst []byte, m Message) ([]byte, error) {
	var start time.Time
	if wm != nil {
		start = time.Now()
	}
	frame, err := Binary.AppendEncode(dst, m)
	if wm != nil {
		wm.encodeSeconds.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		return nil, err
	}
	if body := len(frame) - len(dst); body > MaxFrameBytes {
		return nil, fmt.Errorf("transport: outgoing frame of %d bytes exceeds limit %d: %w",
			body, MaxFrameBytes, ErrFrameTooLarge)
	}
	return frame, nil
}

// decodeFrame runs one decode into the conn's scratch with instrumentation
// (wm may be nil).
func decodeFrame(scratch *recvScratch, wm *wireInstruments, frame []byte) (m Message, err error) {
	var start time.Time
	if wm != nil {
		start = time.Now()
	}
	m, err = decodeBinary(frame, scratch)
	if wm != nil {
		wm.decodeSeconds.Observe(time.Since(start).Seconds())
	}
	return m, err
}

// InprocNetwork is a registry of in-process listeners addressable by name,
// so the same cloud/edge/vehicle code runs unchanged over pipes or TCP.
type InprocNetwork struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
}

// NewInprocNetwork returns an empty network.
func NewInprocNetwork() *InprocNetwork {
	return &InprocNetwork{listeners: make(map[string]*inprocListener)}
}

type inprocListener struct {
	name string
	net  *InprocNetwork
	backlog
}

type backlog struct {
	queue  chan Conn
	closed chan struct{}
	once   sync.Once
}

// Listen registers a named endpoint.
func (n *InprocNetwork) Listen(name string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[name]; exists {
		return nil, fmt.Errorf("transport: inproc address %q already in use", name)
	}
	l := &inprocListener{
		name: name,
		net:  n,
		backlog: backlog{
			queue:  make(chan Conn, 64),
			closed: make(chan struct{}),
		},
	}
	n.listeners[name] = l
	return l, nil
}

// Dial connects to a named endpoint.
func (n *InprocNetwork) Dial(name string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[name]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no inproc listener at %q", name)
	}
	client, server := Pipe()
	select {
	case <-l.closed:
		return nil, ErrClosed
	case l.queue <- server:
		return client, nil
	}
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.queue:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		delete(l.net.listeners, l.name)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.name }

// --- TCP transport ---

// framePool recycles frame buffers across every conn's Send calls, a pipe's
// Recv calls and the TCP Recv calls whose body outgrows the conn's read
// buffer, so the steady-state hot path allocates nothing for framing.
var framePool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// recvBufBytes sizes a TCP conn's read buffer. Every per-vehicle-round frame
// fits with its header (a policy at K=9 is about 90 bytes, a 60-item delivery
// about 300), so one read brings in a whole frame and whatever is queued behind
// it; a fleet holds hundreds of mostly idle conns, so the buffer is an eighth
// of a bufio.Reader's default. Larger bodies bypass it.
const recvBufBytes = 512

// tcpConn frames messages as a 4-byte big-endian length followed by the
// Binary encoding. The first bytes on the wire are the dialer's version
// preamble (see negotiate). A frame is sent with one Write and received,
// header and body together, with one Read.
type tcpConn struct {
	c       net.Conn
	timeout time.Duration
	dialer  bool // dialing side declares the version, accepting side checks it

	hs    sync.Once
	hsErr error

	wr sync.Mutex
	rd sync.Mutex // guards rbuf, r, w and scratch once negotiation is done
	// rbuf[r:w] holds bytes read from c and not yet consumed: the rest of
	// the frame being received and any frames (or part of one) that arrived
	// with it. Negotiation reads through it too, so whatever came in with the
	// preamble is still there for Recv.
	rbuf    [recvBufBytes]byte
	r, w    int
	scratch recvScratch

	closed chan struct{}
	once   sync.Once
}

// TCPOption configures a tcpConn.
type TCPOption func(*tcpConn)

// WithTimeout sets a per-operation read/write deadline, so a stalled peer
// cannot wedge Send or Recv forever: each Send arms a write deadline and
// each Recv a read deadline of d. Expiry surfaces as an error wrapping
// ErrTimeout. Zero keeps blocking semantics.
func WithTimeout(d time.Duration) TCPOption {
	return func(t *tcpConn) { t.timeout = d }
}

// NewTCPConn wraps an established net.Conn in the framing codec, in the
// accepting (server) role of version negotiation. Dialed conns come from
// DialTCP, which takes the declaring role.
func NewTCPConn(c net.Conn, opts ...TCPOption) Conn {
	t := &tcpConn{c: c, closed: make(chan struct{})}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// DialTCP connects to a TCP endpoint.
func DialTCP(addr string, opts ...TCPOption) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	t := NewTCPConn(c, opts...).(*tcpConn)
	t.dialer = true
	return t, nil
}

// handshake runs version negotiation exactly once; every Send and Recv
// funnels through it.
func (t *tcpConn) handshake() error {
	t.hs.Do(func() { t.hsErr = t.negotiate() })
	return t.hsErr
}

// negotiate checks that both ends speak the same wire version. The dialing
// side declares it by writing [magic, version] ahead of its first frame and
// proceeds immediately (no reply round-trip, so negotiation never deadlocks
// a half-duplex exchange); the accepting side reads the declaration and
// refuses the connection with ErrCodecVersion when the first byte is not the
// magic or the version is not VersionBinary — a peer that speaks anything
// else is hung up on rather than misread.
func (t *tcpConn) negotiate() error {
	if t.timeout > 0 {
		deadline := time.Now().Add(t.timeout)
		_ = t.c.SetWriteDeadline(deadline)
		_ = t.c.SetReadDeadline(deadline)
	}
	if t.dialer {
		if _, err := t.c.Write([]byte{codecMagic, VersionBinary}); err != nil {
			return t.opErr("codec negotiation", err)
		}
		return nil
	}
	if err := t.fill(1); err != nil {
		return t.headerErr("codec negotiation", err)
	}
	if first := t.rbuf[t.r]; first != codecMagic {
		return t.refuse(fmt.Sprintf("peer opened with 0x%02x, not the codec preamble", first))
	}
	if err := t.fill(2); err != nil {
		return t.headerErr("codec negotiation", err)
	}
	declared := t.rbuf[t.r+1]
	t.r += 2
	if declared != VersionBinary {
		return t.refuse(fmt.Sprintf("peer declared version %d, want %d", declared, VersionBinary))
	}
	return nil
}

// refuse hangs up on a peer whose preamble failed the version check; the
// error stays on the conn, so every later Send and Recv reports it.
func (t *tcpConn) refuse(why string) error {
	_ = t.c.Close()
	return fmt.Errorf("%w: %s", ErrCodecVersion, why)
}

// opErr maps a raw net.Conn failure to the transport's error vocabulary:
// operations on a conn we closed ourselves report ErrClosed (io.EOF for
// reads), and deadline expiries wrap ErrTimeout.
func (t *tcpConn) opErr(op string, err error) error {
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("transport: %s deadline exceeded: %w", op, ErrTimeout)
	}
	return fmt.Errorf("transport: %s: %w", op, err)
}

// headerErr maps read failures at a frame boundary: our own Close and a
// peer that hung up cleanly both surface as io.EOF (session teardown, not
// an error).
func (t *tcpConn) headerErr(op string, err error) error {
	select {
	case <-t.closed:
		return io.EOF
	default:
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return io.EOF
	}
	return t.opErr(op, err)
}

// fill reads until at least n (≤ recvBufBytes) unconsumed bytes are
// buffered, taking in the same read whatever else the peer has already
// sent. Like io.ReadFull it reports io.EOF when the stream ended with
// nothing buffered and io.ErrUnexpectedEOF when it ended short of n. Callers
// hold t.rd, or run inside the handshake.
func (t *tcpConn) fill(n int) error {
	if t.r == t.w {
		t.r, t.w = 0, 0
	} else if t.r+n > len(t.rbuf) {
		t.w = copy(t.rbuf[:], t.rbuf[t.r:t.w])
		t.r = 0
	}
	for t.w-t.r < n {
		k, err := t.c.Read(t.rbuf[t.w:])
		t.w += k
		if err != nil && t.w-t.r < n {
			if err == io.EOF && t.w > t.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

func (t *tcpConn) Send(m Message) error {
	if err := t.handshake(); err != nil {
		if err == io.EOF {
			return fmt.Errorf("transport: %w", ErrClosed)
		}
		return err
	}
	wm := wireObs.Load()
	bufp := framePool.Get().(*[]byte)
	// Encoding, the frame-size check and the header fixup happen before the
	// write lock, so a rejected frame never serializes behind a slow peer.
	buf, err := encodeFrame(wm, append((*bufp)[:0], 0, 0, 0, 0), m) // length prefix placeholder
	if err != nil {
		framePool.Put(bufp)
		return err
	}
	body := len(buf) - 4
	binary.BigEndian.PutUint32(buf[:4], uint32(body))
	t.wr.Lock()
	if t.timeout > 0 {
		_ = t.c.SetWriteDeadline(time.Now().Add(t.timeout))
	}
	_, werr := t.c.Write(buf) // header + body in one write
	t.wr.Unlock()
	*bufp = buf
	framePool.Put(bufp)
	if werr != nil {
		return t.opErr("writing frame", werr)
	}
	if wm != nil {
		wm.bytesSent.Add(int64(body) + 4)
	}
	return nil
}

// Recv returns the next message; see Conn.Recv for how long its Body stays
// valid.
func (t *tcpConn) Recv() (Message, error) {
	t.rd.Lock()
	defer t.rd.Unlock()
	return t.recv(t.timeout)
}

// RecvWithin is Recv with the wait also bounded by d (see RecvTimeout): the
// read deadline is the tighter of d and the conn's own timeout, and a conn
// without one blocks indefinitely again on its next Recv.
func (t *tcpConn) RecvWithin(d time.Duration) (Message, error) {
	t.rd.Lock()
	defer t.rd.Unlock()
	if t.timeout > 0 {
		return t.recv(min(d, t.timeout))
	}
	m, err := t.recv(d)
	_ = t.c.SetReadDeadline(time.Time{})
	return m, err
}

// recv receives one frame under a read deadline of limit (0 = none). Callers
// hold t.rd.
func (t *tcpConn) recv(limit time.Duration) (Message, error) {
	if err := t.handshake(); err != nil {
		return Message{}, err
	}
	t.scratch.release()
	if limit > 0 {
		_ = t.c.SetReadDeadline(time.Now().Add(limit))
	}
	if err := t.fill(4); err != nil {
		return Message{}, t.headerErr("reading frame header", err)
	}
	size := int(binary.BigEndian.Uint32(t.rbuf[t.r:]))
	t.r += 4
	if size > MaxFrameBytes {
		return Message{}, fmt.Errorf("transport: incoming frame of %d bytes exceeds limit %d: %w",
			size, MaxFrameBytes, ErrFrameTooLarge)
	}
	var (
		frame []byte
		bufp  *[]byte
		err   error
	)
	if size <= len(t.rbuf) {
		// Usually already here: the read that brought the header brought
		// the body with it, and the codec does not alias the frame it
		// decodes, so it is decoded where it lies.
		if err = t.fill(size); err == nil {
			frame = t.rbuf[t.r : t.r+size]
			t.r += size
		}
	} else {
		// A body larger than the read buffer goes straight into a pooled
		// frame buffer, after the part of it that arrived with the header.
		bufp = framePool.Get().(*[]byte)
		frame = *bufp
		if cap(frame) < size {
			frame = make([]byte, size)
		}
		frame = frame[:size]
		*bufp = frame
		k := copy(frame, t.rbuf[t.r:t.w])
		t.r += k
		if _, err = io.ReadFull(t.c, frame[k:]); err == io.EOF && k > 0 {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		if bufp != nil {
			framePool.Put(bufp)
		}
		select {
		case <-t.closed:
			return Message{}, io.EOF
		default:
		}
		return Message{}, t.opErr("reading frame body", err)
	}
	wm := wireObs.Load()
	m, err := decodeFrame(&t.scratch, wm, frame)
	if bufp != nil {
		framePool.Put(bufp)
	}
	if err != nil {
		return Message{}, err
	}
	if wm != nil {
		wm.bytesRecv.Add(int64(size) + 4)
	}
	return m, nil
}

// Close releases the connection; an in-flight Recv unblocks with io.EOF.
func (t *tcpConn) Close() error {
	t.once.Do(func() { close(t.closed) })
	return t.c.Close()
}

// tcpListener adapts net.Listener, handing every accepted conn the
// listener's options.
type tcpListener struct {
	l    net.Listener
	opts []TCPOption
}

// ListenTCP opens a TCP listener on addr (e.g. "127.0.0.1:0"). The options
// are applied to every accepted connection, so server-side conns honor the
// same deadlines as dialed ones.
func ListenTCP(addr string, opts ...TCPOption) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %s: %w", addr, err)
	}
	return &tcpListener{l: l, opts: opts}, nil
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewTCPConn(c, t.opts...), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }
