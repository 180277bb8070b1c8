package transport

import (
	"sync/atomic"

	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/resource"
)

// resourceSender stamps the owning resource's name and the host's current
// membership stage onto every envelope a per-resource node sends. State
// machines never see either field; this wrapper is what scopes their
// traffic to one lock and one configuration epoch.
type resourceSender struct {
	name  string
	under BatchSender
	stage *atomic.Uint64
}

func (s resourceSender) stamp(env *mutex.Envelope) {
	env.Resource = s.name
	env.Epoch = s.stage.Load()
}

// Send implements Sender.
func (s resourceSender) Send(env mutex.Envelope) error {
	s.stamp(&env)
	return s.under.Send(env)
}

// SendBatch implements BatchSender.
func (s resourceSender) SendBatch(envs []mutex.Envelope) error {
	for i := range envs {
		s.stamp(&envs[i])
	}
	return s.under.SendBatch(envs)
}

// resourceSink stamps the resource name onto observed events so the metrics
// collector can key its aggregation per lock. The default resource passes
// the sink through untouched (the zero Event.Resource is already correct).
func resourceSink(name string, sink obs.Sink) obs.Sink {
	if sink == nil || name == resource.Default {
		return sink
	}
	return func(e obs.Event) {
		e.Resource = name
		sink(e)
	}
}

// newResourceNode builds the per-resource protocol node: the site machine
// wrapped with a resource- and stage-stamping sender and a resource-stamping
// sink. host.build is its one caller; delivered may be nil (see
// NewNodeObserved).
func newResourceNode(name string, site mutex.Site, under BatchSender, sink obs.Sink, stage *atomic.Uint64, delivered func(env mutex.Envelope)) *Node {
	return NewNodeObserved(site, resourceSender{name: name, under: under, stage: stage}, resourceSink(name, sink), delivered)
}
