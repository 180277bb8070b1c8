//go:build goexperiment.synctest

package sweep

import "testing/synctest"

// inBubble runs f in a synctest bubble (GOEXPERIMENT=synctest, `make vt`):
// the schedule's delays, holds, acquire timeouts and watchdog run on a
// virtual clock that advances only once every goroutine in the bubble
// waits, so a sweep's timing is the plan's and not the host's.
func inBubble(f func()) { synctest.Run(f) }
