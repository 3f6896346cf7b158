package lrpc

// SuperviseReplicated is the availability capstone over the registry
// plane: a Supervisor whose resolver finds a service through the
// replicated registry, binds via the cheapest live plane (in-process →
// shared memory → TCP, the TransparentBinding ladder), and fails over
// between endpoints when its current one dies. The at-most-once rule is
// the Supervisor's own (replaySafe): a call is re-sent to another
// endpoint only when its non-execution is provable; a timeout or
// mid-call connection loss returns the error — the server may have
// executed the call — and recovery proceeds in the background so the
// caller's *next* call finds a live binding.

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"time"
)

// ReplicatedOpts tunes SuperviseReplicated. The zero value works.
type ReplicatedOpts struct {
	// SupervisorOpts tunes recovery; zero fields select 5ms/250ms
	// backoff and a 100ms probe.
	SupervisorOpts
	// Registry tunes the embedded registry client (replica call budgets,
	// fault-injected dialers).
	Registry RegistryClientOpts
	// Local, when set, lets the supervisor bind in-process: an endpoint
	// with PlaneInproc resolves to Local.Import(name).
	Local *System
	// Net is the DialOptions template for TCP endpoints (breaker
	// settings, timeouts ride here); the Dial field is ignored — set
	// DialTCP for per-address dialing.
	Net DialOptions
	// DialTCP overrides how TCP endpoints are dialed (default net.Dial)
	// — the fault-injection joint for partitions and crashed servers.
	DialTCP func(addr string) (net.Conn, error)
	// ShmDial overrides how shm endpoints are dialed (default DialShm).
	ShmDial func(path, name string) (*ShmClient, error)
	// Tracer receives TraceFailover and TraceRebind events.
	Tracer Tracer
}

// SuperviseReplicated resolves name through the registry replicas at
// registryAddrs, binds to the best live endpoint, and returns a
// supervisor that fails over transparently. Its resolver re-resolves on
// every rebind, ranking the endpoints with the one that just failed
// demoted, so a call one endpoint refused is replayed on the next. The
// initial resolve-and-bind is synchronous: an error means no replica
// answered or no endpoint was reachable.
func SuperviseReplicated(name string, opts ReplicatedOpts, registryAddrs ...string) (*Supervisor, error) {
	if len(registryAddrs) == 0 {
		return nil, errors.New("lrpc: SuperviseReplicated requires at least one registry address")
	}
	opts.fill(5*time.Millisecond, 250*time.Millisecond, 100*time.Millisecond)
	rc := NewRegistryClient(registryAddrs, opts.Registry)
	resolve := func(stale *TransparentBinding) (*TransparentBinding, error) {
		eps, err := rc.Resolve(name)
		if err != nil {
			return nil, err
		}
		var failed Endpoint
		if stale != nil {
			failed = stale.ep
		}
		err = fmt.Errorf("%w: registry returned no endpoints", ErrNoSuchName)
		for _, ep := range rankEndpoints(eps, failed) {
			tb, berr := opts.bindEndpoint(name, ep)
			if berr != nil {
				err = fmt.Errorf("bind %s: %w", ep, berr)
				continue
			}
			tb.ep = ep
			return tb, nil
		}
		return nil, err
	}
	s, err := supervise(&Supervisor{resolve: resolve, opts: opts.SupervisorOpts,
		name: name, tracer: opts.Tracer, release: rc.Close}, opts.RebindAttempts)
	if err != nil {
		rc.Close()
		return nil, err
	}
	return s, nil
}

// rankEndpoints orders candidates by plane preference — in-process, then
// shared memory, then TCP (the paper's Table 1 ladder) — demoting the
// endpoint that just failed behind every alternative.
func rankEndpoints(eps []Endpoint, failed Endpoint) []Endpoint {
	out := append([]Endpoint(nil), eps...)
	rank := func(ep Endpoint) int {
		r := 0
		switch ep.Plane {
		case PlaneInproc:
			r = 0
		case PlaneShm:
			r = 1
		case PlaneTCP:
			r = 2
		default:
			r = 3
		}
		if ep == failed {
			r += 10 // last resort: only if nothing else binds
		}
		return r
	}
	sort.SliceStable(out, func(i, j int) bool { return rank(out[i]) < rank(out[j]) })
	return out
}

// bindEndpoint builds the transport for one endpoint.
func (o *ReplicatedOpts) bindEndpoint(name string, ep Endpoint) (*TransparentBinding, error) {
	switch ep.Plane {
	case PlaneInproc:
		if o.Local == nil {
			return nil, errors.New("lrpc: in-process endpoint but no local System configured")
		}
		b, err := o.Local.Import(name)
		if err != nil {
			return nil, err
		}
		return BindLocal(b), nil
	case PlaneShm:
		dial := o.ShmDial
		if dial == nil {
			dial = DialShm
		}
		c, err := dial(ep.Addr, name)
		if err != nil {
			return nil, err
		}
		return BindShm(c), nil
	case PlaneTCP:
		dial := o.DialTCP
		if dial == nil {
			dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
		}
		dopts := o.Net
		dopts.Dial = func() (net.Conn, error) { return dial(ep.Addr) }
		c, err := NewReconnectingClient(name, dopts)
		if err != nil {
			return nil, err
		}
		return BindRemote(c), nil
	default:
		return nil, fmt.Errorf("lrpc: unknown endpoint plane %q", ep.Plane)
	}
}
