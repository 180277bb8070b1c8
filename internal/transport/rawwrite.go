//go:build !windows

package transport

import "syscall"

// writeFD is one write(2) on a socket the runtime already holds
// non-blocking: it returns EAGAIN rather than wait when the buffer is full.
func writeFD(fd uintptr, b []byte) (int, error) { return syscall.Write(int(fd), b) }
