//go:build !race

package dqmx_test

// raceTScale: without the race detector liveT keeps its base value.
const raceTScale = 1
