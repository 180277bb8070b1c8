package main

import (
	"dqmx"
	"dqmx/internal/coterie"
)

// layer names a module of the system; a workload lists the layers on its
// path, and the traced pass probes only those.
type layer string

const (
	layerCore      layer = "core"
	layerWire      layer = "wire"
	layerTransport layer = "transport"
	layerResource  layer = "resource"
	layerSession   layer = "session"
	layerObs       layer = "obs"
	layerSim       layer = "sim"
	layerCoterie   layer = "coterie"
)

// workload is one named set of inputs. A live workload deploys the system
// and drives it from the loader; a sim workload runs spec in virtual time.
// A live workload's spec names only its coterie, for the probes and the
// 3(K−1)..6(K−1) band.
type workload struct {
	name string
	why  string
	live bool

	// deploy builds the live deployment; the seed decides whatever the
	// deployment leaves open (which arbiters the clients attach to).
	deploy func(seed int64, observe dqmx.ObserveConfig) (*deployment, error)
	shape  loadShape
	// uncontended marks a load with never two requests outstanding: it
	// has no hand-off to a waiter to measure.
	uncontended bool
	// tcp marks a deployment whose sites talk over loopback sockets.
	tcp bool

	spec   simSpec
	layers []layer
}

func (w workload) has(l layer) bool {
	for _, x := range w.layers {
		if x == l {
			return true
		}
	}
	return false
}

var workloads = []workload{
	{
		name: "inproc-heavy",
		why:  "9 in-process sites, grid K=5, one lock, every site saturating it: core, resource and the in-proc node loop do all the work; no wire, sockets or session",
		live: true,
		deploy: func(_ int64, o dqmx.ObserveConfig) (*deployment, error) {
			return deployInproc(9, o)
		},
		shape:  heavy,
		spec:   simSpec{n: 9, cons: coterie.Grid{}},
		layers: []layer{layerCore, layerResource, layerTransport, layerObs, layerCoterie},
	},
	{
		name: "tcp-heavy",
		why:  "the same load over 9 loopback TCP peers with the binary codec: adds wire, the reliable sublayer, writers and sockets; its gap to inproc-heavy is the TCP/in-proc ratio",
		live: true,
		deploy: func(_ int64, o dqmx.ObserveConfig) (*deployment, error) {
			return deployTCP(9, o)
		},
		shape:  heavy,
		tcp:    true,
		spec:   simSpec{n: 9, cons: coterie.Grid{}},
		layers: []layer{layerCore, layerResource, layerTransport, layerWire, layerObs, layerCoterie},
	},
	{
		name: "tcp-light",
		why:  "the same TCP peers walked round-robin by one requester, never two outstanding: no queueing, about 3(K-1)=12 messages per CS, latency of one round trip; batching that delays a first message loses",
		live: true,
		deploy: func(_ int64, o dqmx.ObserveConfig) (*deployment, error) {
			return deployTCP(9, o)
		},
		shape:       light,
		uncontended: true,
		tcp:         true,
		spec:        simSpec{n: 9, cons: coterie.Grid{}},
		layers:      []layer{layerCore, layerResource, layerTransport, layerWire, layerObs, layerCoterie},
	},
	{
		name: "service-heavy",
		why:  "3 arbiters over a majority coterie (K=2) and 2 client sessions on different arbiters saturating one lock: the only workload with the session hop, leases and arbiter-side handles on the path",
		live: true,
		deploy: func(seed int64, o dqmx.ObserveConfig) (*deployment, error) {
			return deployService(seededOrder(3, seed)[:2], o)
		},
		shape:  heavy,
		tcp:    true,
		spec:   simSpec{n: 3, cons: coterie.Majority{}},
		layers: []layer{layerCore, layerResource, layerTransport, layerWire, layerSession, layerObs, layerCoterie},
	},
	{
		name:   "sim-heavy",
		why:    "25 simulated sites, grid K=9, constant delay T, each saturated for 4000 CS: virtual time makes msgs/CS and delay in T exact, states the paper's claim as numbers, isolates core + sim from goroutines",
		spec:   simSpec{n: 25, cons: coterie.Grid{}, perSite: 4000},
		layers: []layer{layerCore, layerSim, layerCoterie},
	},
	{
		name: "sim-crash",
		why:  "15 simulated sites over tree quorums, saturated for 2000 CS each, the root crashing at 200 T and site 3 at 600 T: the only workload through the section-6 recovery path, with exact counts",
		spec: simSpec{
			n: 15, cons: coterie.Tree{}, perSite: 2000,
			crashes: []simCrash{{atT: 200, site: 0}, {atT: 600, site: 3}},
		},
		layers: []layer{layerCore, layerSim, layerCoterie},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
