//go:build race

package dqmx_test

// raceTScale: under the race detector a host-clock hand-off's fixed cost
// grows enough that Maekawa's p50 fell below 1.3× the delay-optimal one in
// about one run of ten at T = 2 ms; T = 4 ms keeps the ratio clear.
const raceTScale = 2
