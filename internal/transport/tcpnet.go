package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// TCPFabric implements the fabric over real TCP sockets. Each endpoint
// owns a listener; Send lazily dials and caches one outbound
// connection per peer. Frames are length-prefixed:
//
//	[4-byte big-endian frame length][frame]
//	frame = [2-byte sender-address length][sender address][payload]
//
// The sender address rides in every frame (rather than once per
// connection) to keep the framing stateless and trivially robust to
// reconnects.
//
// Send follows the package-level ownership contract: the payload is
// written to the socket synchronously and recycled into the buffer
// pool before Send returns, so callers must hand over a buffer they
// will never touch again.
type TCPFabric struct {
	mu sync.Mutex
	// resolve maps logical addresses to TCP "host:port" when the two
	// differ (ringd uses logical node names over real sockets).
	resolve map[string]string
	// faultFn, when set, may drop, delay, or duplicate outgoing frames
	// (see FaultFunc). TCP itself never reorders or duplicates within a
	// connection; the hook models faults above the socket, where the
	// chaos harness injects them.
	faultFn FaultFunc
}

// NewTCPFabric creates a TCP-backed fabric. Logical addresses are used
// verbatim as TCP addresses unless remapped with Map.
func NewTCPFabric() *TCPFabric {
	return &TCPFabric{resolve: make(map[string]string)}
}

// SetFaultFunc implements FaultInjector (nil disables).
func (f *TCPFabric) SetFaultFunc(fn FaultFunc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faultFn = fn
}

func (f *TCPFabric) fault(from, to string, size int) FaultAction {
	f.mu.Lock()
	fn := f.faultFn
	f.mu.Unlock()
	if fn == nil {
		return FaultAction{}
	}
	return fn(from, to, size)
}

// Map binds a logical address to a concrete TCP address.
func (f *TCPFabric) Map(logical, tcpAddr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resolve[logical] = tcpAddr
}

func (f *TCPFabric) lookup(addr string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t, ok := f.resolve[addr]; ok {
		return t
	}
	return addr
}

// Register implements Fabric: it starts listening on the TCP address
// mapped from addr (or addr itself). A logical address with no mapping
// and no port (e.g. an ephemeral client name) binds to a loopback
// ephemeral port; peers reach it only by replying over its outbound
// connections.
func (f *TCPFabric) Register(addr string) (Endpoint, error) {
	if addr == "" {
		return nil, ErrEmptyAddress
	}
	tcpAddr := f.lookup(addr)
	if tcpAddr == addr && !strings.Contains(addr, ":") {
		tcpAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", tcpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &tcpEndpoint{
		fabric:     f,
		addr:       addr,
		ln:         ln,
		inbox:      make(chan Packet, 1024),
		conns:      make(map[string]net.Conn),
		replyConns: make(map[string]net.Conn),
		done:       make(chan struct{}),
	}
	go ep.acceptLoop()
	return ep, nil
}

// BoundAddr returns the concrete TCP address an endpoint is listening
// on (useful when registering with port 0).
func BoundAddr(e Endpoint) string {
	if t, ok := e.(*tcpEndpoint); ok {
		return t.ln.Addr().String()
	}
	return e.Addr()
}

type tcpEndpoint struct {
	fabric *TCPFabric
	addr   string
	ln     net.Listener
	inbox  chan Packet

	mu    sync.Mutex
	conns map[string]net.Conn
	// replyConns remembers the inbound connection a peer last spoke
	// on, so replies can be routed to peers with no dialable address
	// (clients behind arbitrary ports).
	replyConns map[string]net.Conn

	closeOnce sync.Once
	done      chan struct{}
}

func (e *tcpEndpoint) Addr() string { return e.addr }

func (e *tcpEndpoint) acceptLoop() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go e.readLoop(c)
	}
}

func (e *tcpEndpoint) readLoop(c net.Conn) {
	defer c.Close()
	r := bufio.NewReaderSize(c, 64<<10)
	from := ""
	for {
		f, payload, err := readFrame(r, from)
		if err != nil {
			return
		}
		from = f
		e.mu.Lock()
		e.replyConns[from] = c
		e.mu.Unlock()
		select {
		case e.inbox <- Packet{From: from, Payload: payload}:
			countRecv(payload, len(e.inbox))
		case <-e.done:
			return
		}
	}
}

// readFrame reads one frame. The header and sender address are parsed
// in place in the reader's buffer, and the address string of the
// previous frame (last) is reused when it repeats, as it does on every
// frame of a connection carrying one sender. The payload lands in a
// pooled buffer when one is large enough (the receiver recycles it with
// ReleaseBuf once decoded) and in a fresh allocation otherwise.
func readFrame(r *bufio.Reader, last string) (string, []byte, error) {
	hdr, err := r.Peek(6)
	if err != nil {
		return "", nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 2 || n > 64<<20 {
		return "", nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	alen := int(binary.BigEndian.Uint16(hdr[4:]))
	if 2+uint32(alen) > n {
		return "", nil, fmt.Errorf("transport: bad address length %d", alen)
	}
	if _, err := r.Discard(6); err != nil {
		return "", nil, err
	}
	// The reader's buffer is 64 KiB, so any 16-bit address fits a Peek.
	ab, err := r.Peek(alen)
	if err != nil {
		return "", nil, err
	}
	from := last
	if string(ab) != last {
		from = string(ab)
	}
	if _, err := r.Discard(alen); err != nil {
		return "", nil, err
	}
	plen := int(n) - 2 - alen
	payload := AcquireBuf()
	if cap(payload) < plen {
		ReleaseBuf(payload)
		payload = make([]byte, plen)
	}
	payload = payload[:plen]
	if _, err := io.ReadFull(r, payload); err != nil {
		ReleaseBuf(payload)
		return "", nil, err
	}
	return from, payload, nil
}

// writeFrame writes header and payload with one vectored write (writev
// on a TCP socket), so the payload is never copied into a staging
// frame. A TCP connection holds its write lock for the whole writev, so
// frames written concurrently to one connection never interleave.
func writeFrame(c net.Conn, from string, payload []byte) error {
	hdr := make([]byte, 6+len(from))
	binary.BigEndian.PutUint32(hdr, uint32(2+len(from)+len(payload)))
	binary.BigEndian.PutUint16(hdr[4:], uint16(len(from)))
	copy(hdr[6:], from)
	bufs := net.Buffers{hdr, payload}
	_, err := bufs.WriteTo(c)
	return err
}

func (e *tcpEndpoint) Send(to string, payload []byte) error {
	switch act := e.fabric.fault(e.addr, to, len(payload)); {
	case act.Drop:
		Metrics.Drops.Inc()
		ReleaseBuf(payload)
		return nil
	case act.Duplicate || act.Delay > 0:
		if act.Duplicate {
			Metrics.Duplicates.Inc()
			dup := append([]byte(nil), payload...)
			e.transmit(to, dup)
		}
		if act.Delay > 0 {
			Metrics.Delays.Inc()
			time.AfterFunc(act.Delay, func() { e.transmit(to, payload) })
			return nil
		}
	}
	return e.transmit(to, payload)
}

// transmit performs the actual framed write (dialing on demand),
// bypassing fault injection.
func (e *tcpEndpoint) transmit(to string, payload []byte) error {
	e.mu.Lock()
	c := e.conns[to]
	if c == nil {
		// Fall back to the connection the peer last spoke on.
		c = e.replyConns[to]
	}
	e.mu.Unlock()
	if c == nil {
		nc, err := net.Dial("tcp", e.fabric.lookup(to))
		if err != nil {
			Metrics.SendErrors.Inc()
			return fmt.Errorf("%w: %s (%v)", ErrUnknownPeer, to, err)
		}
		e.mu.Lock()
		var lost net.Conn
		if old := e.conns[to]; old != nil {
			// Lost the race; keep the existing connection and close
			// ours below, outside the lock — Close can block on the
			// TCP stack and everything sending through this endpoint
			// serializes on e.mu.
			lost = nc
			c = old
		} else {
			e.conns[to] = nc
			c = nc
			// Connections are full duplex: the peer replies over the
			// same socket, so read from dialed connections too.
			go e.readLoop(nc)
		}
		e.mu.Unlock()
		if lost != nil {
			lost.Close()
		}
	}
	err := writeFrame(c, e.addr, payload)
	if err == nil {
		countSend(payload)
	} else {
		Metrics.SendErrors.Inc()
	}
	// The frame write is done with the payload; it is transport-owned
	// now (package ownership contract) and can be recycled either way.
	ReleaseBuf(payload)
	if err != nil {
		// Connection broke: forget it so the next send re-dials.
		e.mu.Lock()
		if e.conns[to] == c {
			delete(e.conns, to)
		}
		e.mu.Unlock()
		c.Close()
		return fmt.Errorf("%w: %s (%v)", ErrUnknownPeer, to, err)
	}
	return nil
}

func (e *tcpEndpoint) Recv() (Packet, error) {
	select {
	case p := <-e.inbox:
		return p, nil
	case <-e.done:
		select {
		case p := <-e.inbox:
			return p, nil
		default:
			return Packet{}, ErrClosed
		}
	}
}

func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.ln.Close()
		// Snapshot under the lock, close outside it: a Close stuck in
		// the TCP stack must not wedge concurrent transmits (they all
		// take e.mu to look up a connection).
		e.mu.Lock()
		conns := make([]net.Conn, 0, len(e.conns))
		for _, c := range e.conns {
			conns = append(conns, c)
		}
		e.conns = map[string]net.Conn{}
		e.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return nil
}
