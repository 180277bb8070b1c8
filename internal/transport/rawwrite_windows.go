package transport

import "syscall"

// writeFD reports a full socket buffer without writing: on Windows every
// batch takes the blocking path, on the goroutine the write role passes to.
func writeFD(uintptr, []byte) (int, error) { return 0, syscall.EAGAIN }
