package transport

import "syscall"

// writeInline is false on Windows: writeFD blocks there, so every batch is
// written by the goroutine the write role passes to.
const writeInline = false

// writeFD is one blocking send: with no overlapped structure the socket is
// used as a non-overlapped one, and the call returns once all of b is sent
// or the connection fails.
func writeFD(fd uintptr, b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	var n uint32
	buf := syscall.WSABuf{Len: uint32(len(b)), Buf: &b[0]}
	err := syscall.WSASend(syscall.Handle(fd), &buf, 1, &n, 0, nil, nil)
	return int(n), err
}
