//go:build !windows

package transport

import "syscall"

// writeInline says the sender's goroutine may write a batch itself: the
// runtime holds the socket non-blocking, so writeFD never waits.
const writeInline = true

// writeFD is one write(2) on a socket the runtime already holds
// non-blocking: it returns EAGAIN rather than wait when the buffer is full.
func writeFD(fd uintptr, b []byte) (int, error) { return syscall.Write(int(fd), b) }
