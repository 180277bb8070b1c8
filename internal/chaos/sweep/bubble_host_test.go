//go:build !goexperiment.synctest

package sweep

// inBubble runs f on the host clock.
func inBubble(f func()) { f() }
