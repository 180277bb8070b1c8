package session

import (
	"bufio"
	"net"
	"sync"
	"time"

	"dqmx/internal/mutex"
	"dqmx/internal/wire"
)

// The session handshake is the transport's (wire.Offer / wire.Accept) under
// its own magic, wire.MagicSession, so a client that dials a peer port (or
// vice versa) fails loudly instead of desynchronizing two different stream
// grammars. Unlike peer links — which are unidirectional, one encoder per
// outbound connection — a session connection is duplex: once the handshake
// is through, both sides stack an encoder *and* a decoder on it.

// writeTimeout bounds any single frame write so a dead client cannot wedge
// an arbiter goroutine beyond it; the lease machinery handles the rest.
const writeTimeout = 10 * time.Second

// connBufSize sizes a session stream's write and read buffers. Lock
// requests, replies and keepalives are tens of bytes; a larger frame, such
// as a grant listing many held locks, passes the buffer straight through.
const connBufSize = 512

// sessionConn is one negotiated duplex session stream. Reads are owned by a
// single reader goroutine; sends are serialized by wmu so arbiter reply
// goroutines and keepalive echoes can share the stream.
//
// Teardown is split in two: kill (safe from any goroutine) closes the
// net.Conn to unblock the reader, while close — which also releases the
// codecs' pooled scratch — must only run in the reader goroutine after its
// recv loop exits, because decoders are not safe to close mid-Decode.
type sessionConn struct {
	c   net.Conn
	bw  *bufio.Writer
	enc *wire.Encoder
	dec *wire.Decoder

	wmu    sync.Mutex
	closed bool // guarded by wmu; fences sends against encoder teardown
}

// clientHandshake opens the stream from the dialing side.
func clientHandshake(c net.Conn, timeout time.Duration) (*sessionConn, error) {
	if err := wire.Offer(c, wire.MagicSession, timeout); err != nil {
		return nil, err
	}
	return newSessionConn(c), nil
}

// serverHandshake opens the stream from the accepting side.
func serverHandshake(c net.Conn, timeout time.Duration) (*sessionConn, error) {
	if err := wire.Accept(c, wire.MagicSession, timeout); err != nil {
		return nil, err
	}
	return newSessionConn(c), nil
}

func newSessionConn(c net.Conn) *sessionConn {
	bw := bufio.NewWriterSize(c, connBufSize)
	return &sessionConn{
		c:   c,
		bw:  bw,
		enc: wire.Binary().NewEncoder(bw),
		dec: wire.Binary().NewDecoder(bufio.NewReaderSize(c, connBufSize)),
	}
}

// send encodes and flushes one frame. Safe for concurrent use.
func (sc *sessionConn) send(env mutex.Envelope) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if sc.closed {
		return net.ErrClosed
	}
	sc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := sc.enc.Encode(env); err != nil {
		return err
	}
	return sc.bw.Flush()
}

// recv blocks for the next frame; only the owning reader goroutine calls it.
func (sc *sessionConn) recv() (mutex.Envelope, error) {
	return sc.dec.Decode()
}

// kill unblocks the reader from any goroutine; the reader then closes.
func (sc *sessionConn) kill() {
	sc.c.Close()
}

// close tears the stream down and returns pooled codec scratch. Reader
// goroutine only (after its recv loop has exited).
func (sc *sessionConn) close() {
	sc.wmu.Lock()
	if !sc.closed {
		sc.closed = true
		sc.enc.Close()
	}
	sc.wmu.Unlock()
	sc.dec.Close()
	sc.c.Close()
}
