package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Connection handshake. The dialer opens with a 5-byte preamble — 0x00, 'D',
// 'Q', the stream's magic byte, the wire version it offers — and waits for
// the listener's 1-byte answer: min(offered, the listener's own version).
// With one version left the answer is always 1; the exchange stays because
// its bytes are what a later version would negotiate over, and because it is
// where a stranger is turned away — a peer of the retired wire v0, which
// opened with a gob message length (never 0x00) and no preamble, or a client
// of the other stream grammar.
const (
	// MagicPeer marks a site-to-site link (internal/transport).
	MagicPeer byte = 'X'
	// MagicSession marks a client-to-arbiter session (internal/session).
	MagicSession byte = 'S'
)

// ErrV0Retired is the handshake's answer to wire version 0: offered in a
// preamble, answered by a listener, or implied by a connection that opens
// without a preamble at all.
var ErrV0Retired = errors.New("wire v0 (gob) was retired in PR 17: this build speaks wire v1 only, upgrade the peer")

// Offer runs the dialer's half of the handshake on a fresh connection. On
// error the connection is unusable.
func Offer(conn net.Conn, magic byte, timeout time.Duration) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := conn.Write([]byte{0x00, 'D', 'Q', magic, Version}); err != nil {
		return fmt.Errorf("wire: handshake write: %w", err)
	}
	var answer [1]byte
	if _, err := io.ReadFull(conn, answer[:]); err != nil {
		return fmt.Errorf("wire: handshake answer: %w", err)
	}
	switch {
	case answer[0] == 0:
		return fmt.Errorf("wire: peer answered version 0: %w", ErrV0Retired)
	case answer[0] > Version:
		return fmt.Errorf("wire: peer answered version %d above offered %d", answer[0], Version)
	}
	return conn.SetDeadline(time.Time{})
}

// Accept runs the listener's half: it checks the preamble and answers the
// version pick. The first byte is read on its own so that a stream with no
// preamble fails at once, however little of it has arrived.
func Accept(conn net.Conn, magic byte, timeout time.Duration) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	var pre [5]byte
	if _, err := io.ReadFull(conn, pre[:1]); err != nil {
		return fmt.Errorf("wire: preamble read: %w", err)
	}
	if pre[0] != 0x00 {
		return fmt.Errorf("wire: connection opens with 0x%02x, not a preamble: %w", pre[0], ErrV0Retired)
	}
	if _, err := io.ReadFull(conn, pre[1:]); err != nil {
		return fmt.Errorf("wire: preamble read: %w", err)
	}
	if pre[1] != 'D' || pre[2] != 'Q' || pre[3] != magic {
		return fmt.Errorf("wire: handshake magic %q, want %q (a session client on a peer port, or the reverse?)",
			pre[1:4], []byte{'D', 'Q', magic})
	}
	if pre[4] == 0 {
		return fmt.Errorf("wire: preamble offered version 0: %w", ErrV0Retired)
	}
	if _, err := conn.Write([]byte{min(pre[4], Version)}); err != nil {
		return fmt.Errorf("wire: handshake write: %w", err)
	}
	return conn.SetDeadline(time.Time{})
}
