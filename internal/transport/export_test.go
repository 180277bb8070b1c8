package transport

import (
	"fmt"

	"dqmx/internal/mutex"
	"dqmx/internal/resource"
)

// DefaultOnly exports defaultOnly to the external test package.
var DefaultOnly = defaultOnly

// defaultOnly is a TCP peer's factory serving one machine as the default
// resource, for tests that open no named lock.
func defaultOnly(site mutex.Site) func(string) (mutex.Site, error) {
	return func(name string) (mutex.Site, error) {
		if name != resource.Default {
			return nil, fmt.Errorf("test peer serves the default resource only, not %q", name)
		}
		return site, nil
	}
}

// Instance is name's instance at a host, built on first use, for tests
// that drive one lock's machine directly.
func (m *mgr) Instance(name string) (resource.Endpoint, error) {
	e, err := m.get(name)
	if err != nil {
		return nil, err
	}
	return e.node, nil
}
