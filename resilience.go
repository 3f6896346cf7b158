package lrpc

// This file is the overload-control and supervised-recovery subsystem:
// the graceful-degradation machinery a production serving stack layers
// over the paper's §3/§5.3 termination semantics. Four pieces:
//
//   - admission control: a per-export concurrency cap with a
//     deadline-aware, priority-ordered wait queue. A call that cannot be
//     admitted before its deadline is shed immediately with ErrOverload
//     instead of parking past its budget, and low-priority traffic sheds
//     first under pressure (the load-shedding policy rides on
//     CallOpts.Priority);
//   - a circuit breaker for the network plane (see net.go for the
//     NetClient wiring): closed → open on consecutive redial/send
//     failures, half-open after a capped cooldown with a single probe
//     call, so callers fail fast instead of queueing behind a dead peer;
//   - the Supervisor, which owns a binding on any plane, health-probes
//     it, and transparently binds again after ErrRevoked or a dead
//     transport — the paper's "bindings are revoked on domain
//     termination" made survivable by automatic client recovery, with
//     the at-most-once replay rule in one place (replaySafe);
//   - an orphan-activation reaper accounting for abandoned activations
//     (deadline-abandoned calls whose handlers are still running, possibly
//     inside terminated exports) until they actually return.
//
// The design rule is the package's usual one: every hook is an
// atomic.Pointer consulted with a single nil-checked load, so the
// disabled subsystem costs the fast path nothing — Binding.Call stays
// 0 locks / 0 allocs (asserted in concurrency_test.go, gated by
// cmd/benchcheck). All events (shed, breaker-open/close, rebind, reap)
// flow through the Tracer hook of metrics.go.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Errors of the resilience subsystem.
var (
	// ErrOverload reports a call shed by admission control: the export
	// was at its concurrency cap and the call could not (or was not
	// allowed to) wait — its deadline would expire first, the wait queue
	// was full, or it was evicted by higher-priority traffic. The call
	// never reached a handler, so it is always safe to retry.
	ErrOverload = errors.New("lrpc: overloaded (shed by admission control)")

	// ErrBreakerOpen reports a network call rejected while the client's
	// circuit breaker is open: recent calls failed at the connection
	// level, so the client fails fast instead of queueing behind a dead
	// peer. The request was never sent; retry after the breaker's probe
	// recovers.
	ErrBreakerOpen = errors.New("lrpc: circuit breaker open (peer unavailable)")

	// ErrSupervisorClosed reports a call through a closed Supervisor, or
	// one that was waiting on its rebind when it closed.
	ErrSupervisorClosed = errors.New("lrpc: supervisor closed")
)

// Priority is a call's load-shedding class, carried on CallOpts. Under
// admission pressure lower classes shed first: a full wait queue evicts
// its lowest-priority waiter to make room for a higher-priority arrival,
// and freed capacity is granted to the highest-priority waiter first.
// The zero value is PriorityNormal, so CallOpts{} keeps today's behavior.
type Priority int8

const (
	// PriorityLow marks traffic to shed first (batch work, prefetch).
	PriorityLow Priority = -1
	// PriorityNormal is the default class.
	PriorityNormal Priority = 0
	// PriorityHigh marks traffic to shed last (interactive calls).
	PriorityHigh Priority = 1
)

// AdmissionConfig bounds an export's concurrency (SetAdmission).
type AdmissionConfig struct {
	// MaxConcurrent is the number of calls admitted to run handlers at
	// once. <= 0 disables admission control entirely.
	MaxConcurrent int
	// MaxQueue is the number of callers allowed to wait for admission
	// when the export is at MaxConcurrent. 0 sheds immediately at the
	// cap (no queue).
	MaxQueue int
}

// SetAdmission installs (or, with MaxConcurrent <= 0, removes) admission
// control on the export. The hook is an atomic pointer: with admission
// off the call path pays one nil-checked load; with it on and the export
// under its cap, admission is a single CAS. Calls that entered under an
// earlier configuration drain against it.
func (e *Export) SetAdmission(cfg AdmissionConfig) {
	if cfg.MaxConcurrent <= 0 {
		e.admission.Store(nil)
		return
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	a := &admission{cfg: cfg}
	if e.terminated.Load() {
		a.revoke()
	}
	e.admission.Store(a)
}

// Sheds returns how many calls admission control shed with ErrOverload.
func (e *Export) Sheds() uint64 { return e.sheds.Load() }

// admission is the per-export admission controller: an atomic in-flight
// count for the uncontended path and a mutex-guarded priority queue for
// callers waiting out the cap. The mutex is slow-path only — an admitted
// call's enter is one CAS loop and its exit one atomic add plus a
// nil-traffic waiter probe.
type admission struct {
	cfg      AdmissionConfig
	inflight atomic.Int64
	waiters  atomic.Int32
	revoked  atomic.Bool

	mu    sync.Mutex
	queue []*admWaiter
}

// admWaiter is one caller parked for admission. The verdict channel is
// buffered so granters, evicters, and revokers never block on a waiter
// that already left.
type admWaiter struct {
	ch   chan error // nil: admitted; ErrOverload: evicted; ErrRevoked: terminated
	prio Priority
}

// tryFast claims a slot if the export is under its cap.
func (a *admission) tryFast() bool {
	for {
		cur := a.inflight.Load()
		if cur >= int64(a.cfg.MaxConcurrent) {
			return false
		}
		if a.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// enter admits the call or sheds it. deadline (zero = none) is the
// caller's budget: a call that cannot be admitted before it is shed with
// ErrOverload rather than parked past it. cancel, when non-nil, sheds a
// parked caller on context cancellation.
func (a *admission) enter(prio Priority, deadline time.Time, cancel <-chan struct{}) error {
	if a.revoked.Load() {
		return ErrRevoked
	}
	if a.tryFast() {
		return nil
	}
	// Over-deadline calls shed before parking: if the budget is already
	// spent there is no point joining the queue.
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return ErrOverload
	}
	a.mu.Lock()
	if a.revoked.Load() {
		a.mu.Unlock()
		return ErrRevoked
	}
	if len(a.queue) >= a.cfg.MaxQueue {
		// The queue is full: evict the worst waiter of a strictly lower
		// class to make room, or shed this call. Low priority sheds
		// first — by eviction when outranked, immediately otherwise.
		v := a.evictLocked(prio)
		if v == nil {
			a.mu.Unlock()
			return ErrOverload
		}
		v.ch <- ErrOverload
	}
	w := &admWaiter{ch: make(chan error, 1), prio: prio}
	a.queue = append(a.queue, w)
	a.waiters.Add(1)
	// Register-then-recheck, pairing with exit's decrement-then-probe:
	// whichever of the racing sides moves second sees the other, so a
	// slot freed during registration is never missed.
	if a.tryFast() {
		a.removeLocked(w)
		a.waiters.Add(-1)
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()

	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case err := <-w.ch:
		return err
	case <-timeout:
		return a.abandonWait(w)
	case <-cancel:
		return a.abandonWait(w)
	}
}

// abandonWait resolves a parked caller whose deadline or context fired:
// shed with ErrOverload if it is still queued, otherwise honor the
// verdict that raced in (returning an admitted-too-late slot).
func (a *admission) abandonWait(w *admWaiter) error {
	a.mu.Lock()
	if a.removeLocked(w) {
		a.waiters.Add(-1)
		a.mu.Unlock()
		return ErrOverload
	}
	a.mu.Unlock()
	err := <-w.ch // verdict already issued; the channel is buffered
	if err == nil {
		a.exit() // admitted after the budget expired: give the slot back
		return ErrOverload
	}
	return err
}

// exit releases an admitted call's slot and grants it onward.
func (a *admission) exit() {
	a.inflight.Add(-1)
	if a.waiters.Load() > 0 {
		a.grant()
	}
}

// grant hands freed capacity to waiters, highest priority first, FIFO
// within a class.
func (a *admission) grant() {
	a.mu.Lock()
	for len(a.queue) > 0 && a.tryFast() {
		best := 0
		for i := 1; i < len(a.queue); i++ {
			if a.queue[i].prio > a.queue[best].prio {
				best = i
			}
		}
		w := a.queue[best]
		a.queue = append(a.queue[:best], a.queue[best+1:]...)
		a.waiters.Add(-1)
		w.ch <- nil
	}
	a.mu.Unlock()
}

// evictLocked removes and returns the most recently arrived waiter of
// the lowest class strictly below prio, or nil when none is outranked.
func (a *admission) evictLocked(prio Priority) *admWaiter {
	victim := -1
	for i, w := range a.queue {
		if w.prio >= prio {
			continue
		}
		if victim < 0 || w.prio <= a.queue[victim].prio {
			victim = i // <= keeps the latest arrival within the lowest class
		}
	}
	if victim < 0 {
		return nil
	}
	w := a.queue[victim]
	a.queue = append(a.queue[:victim], a.queue[victim+1:]...)
	return w
}

// removeLocked deletes w from the queue, reporting whether it was there.
func (a *admission) removeLocked(w *admWaiter) bool {
	for i := range a.queue {
		if a.queue[i] == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			return true
		}
	}
	return false
}

// revoke fails every waiter with ErrRevoked and sheds all future enters:
// a terminated export can never admit anyone (Terminate calls this, the
// admission analog of astackPool.revoke).
func (a *admission) revoke() {
	a.revoked.Store(true)
	a.mu.Lock()
	q := a.queue
	a.queue = nil
	a.waiters.Add(-int32(len(q)))
	a.mu.Unlock()
	for _, w := range q {
		w.ch <- ErrRevoked
	}
}

// recordShed accounts one ErrOverload: the export counter, the pool's
// shed gauge, and a TraceShed event. Never on the fast path.
func (b *Binding) recordShed(p *Proc, pool *astackPool, err error) {
	b.exp.sheds.Add(1)
	if o := pool.obs.Load(); o != nil {
		o.sheds.add(0, 1)
	}
	b.sys.emitTrace(TraceShed, b.exp.iface.Name, p.Name, err)
}

// --- Circuit breaker (network plane; wired into NetClient in net.go) ---

// breaker states.
const (
	brClosed int32 = iota
	brOpen
	brHalfOpen
)

// breaker is a consecutive-failure circuit breaker: closed until
// `threshold` connection-level failures in a row, then open for a
// cooldown that doubles per re-open up to a cap. After the cooldown one
// probe call is let through (half-open); its success closes the breaker,
// its failure re-opens it.
type breaker struct {
	threshold   int
	cooldown0   time.Duration
	cooldownMax time.Duration

	state   atomic.Int32
	fails   atomic.Int32 // consecutive connection-level failures
	until   atomic.Int64 // unix-nano instant the next probe is allowed
	opens   atomic.Uint64
	rejects atomic.Uint64 // calls failed fast while open

	mu       sync.Mutex
	cooldown time.Duration // current (escalating) cooldown
}

func newBreaker(threshold int, cooldown, cooldownMax time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown0: cooldown, cooldownMax: cooldownMax}
}

// allow admits a call, fails it fast, or elects it the half-open probe.
func (br *breaker) allow(now time.Time) (probe bool, err error) {
	switch br.state.Load() {
	case brClosed:
		return false, nil
	case brOpen:
		if now.UnixNano() >= br.until.Load() && br.state.CompareAndSwap(brOpen, brHalfOpen) {
			return true, nil // this caller probes the peer
		}
	}
	// Open inside the cooldown, or half-open with the probe in flight.
	br.rejects.Add(1)
	return false, ErrBreakerOpen
}

// success records an end-to-end reply; it reports whether this success
// closed a previously open/half-open breaker.
func (br *breaker) success() (closedNow bool) {
	br.fails.Store(0)
	if br.state.Swap(brClosed) == brClosed {
		return false
	}
	br.mu.Lock()
	br.cooldown = 0 // recovery resets the escalation
	br.mu.Unlock()
	return true
}

// failure records a connection-level failure; it reports whether this
// failure opened the breaker (threshold reached, or a probe failed).
func (br *breaker) failure(now time.Time) (openedNow bool) {
	st := br.state.Load()
	n := br.fails.Add(1)
	switch st {
	case brClosed:
		if int(n) < br.threshold {
			return false
		}
	case brOpen:
		return false // already waiting out a cooldown
	}
	br.mu.Lock()
	d := br.cooldown
	if d <= 0 {
		d = br.cooldown0
	} else {
		d *= 2
		if d > br.cooldownMax {
			d = br.cooldownMax
		}
	}
	br.cooldown = d
	br.mu.Unlock()
	br.until.Store(now.Add(d).UnixNano())
	return br.state.Swap(brOpen) != brOpen
}

// --- Supervisor: automatic client recovery across domain termination ---

// SupervisorOpts tunes a Supervisor. Zero fields select the
// constructor's defaults.
type SupervisorOpts struct {
	// RebindAttempts bounds the resolve attempts of one recovery round
	// (and the call retries across rounds). 0 selects 20.
	RebindAttempts int
	// RebindBackoffInitial/Max shape the capped exponential backoff
	// between resolve attempts. Zero values select 1ms and 100ms (5ms
	// and 250ms for SuperviseReplicated).
	RebindBackoffInitial time.Duration
	RebindBackoffMax     time.Duration
	// ProbeInterval is the health-probe period: the supervisor checks
	// its binding and rebinds proactively when it finds it dead, so
	// recovery usually completes before the next call arrives. While the
	// binding is in-process each probe also reaps orphaned activations
	// (System.ReapOrphans). 0 selects 50ms (100ms for
	// SuperviseReplicated); negative disables the prober (calls still
	// recover on demand).
	ProbeInterval time.Duration
	// RetryFailedCalls also replays calls that resolved ErrCallFailed —
	// the handler may have executed, so enable this only for idempotent
	// interfaces. Calls that provably never ran are always replayed.
	RetryFailedCalls bool
}

func (o *SupervisorOpts) fill(backoff, backoffMax, probe time.Duration) {
	if o.RebindAttempts <= 0 {
		o.RebindAttempts = 20
	}
	if o.RebindBackoffInitial <= 0 {
		o.RebindBackoffInitial = backoff
	}
	if o.RebindBackoffMax <= 0 {
		o.RebindBackoffMax = backoffMax
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = probe
	}
}

// SupervisorStats snapshots a supervisor's recovery counters.
type SupervisorStats struct {
	Resolves  uint64   // resolver runs: imports, dials or registry lookups
	Rebinds   uint64   // times the binding was replaced
	Failovers uint64   // rebinds that landed on a different registry endpoint
	Endpoint  Endpoint // registry endpoint bound now (zero unless SuperviseReplicated)
}

// Supervisor owns a binding on the caller's behalf, the paper's clerk
// made survivable: calls go through the current binding, and when its
// server domain terminates or its transport dies the supervisor binds
// again — with backoff, single-flight across concurrent callers — and
// replays the call when it provably never ran (replaySafe). A
// background prober rebinds ahead of demand. Supervise, SuperviseShm
// and SuperviseReplicated differ only in how they resolve a binding.
// Safe for concurrent use.
type Supervisor struct {
	// resolve returns a fresh binding to replace stale (nil on the first
	// bind).
	resolve func(stale *TransparentBinding) (*TransparentBinding, error)
	opts    SupervisorOpts
	name    string       // service name in trace events (SuperviseReplicated)
	tracer  Tracer       // when nil, events go to an in-process binding's System
	release func() error // closes what the resolver holds (a registry client)

	cur       atomic.Pointer[TransparentBinding]
	resolves  atomic.Uint64
	rebinds   atomic.Uint64
	failovers atomic.Uint64

	mu         sync.Mutex
	rebindDone chan struct{} // closes when the recovery in flight ends; nil when idle
	rebindErr  error         // the outcome of the last recovery
	closed     bool
	closeCh    chan struct{}
}

// supervise binds s through its resolver, giving the first bind
// attempts tries under the backoff, and starts the prober.
func supervise(s *Supervisor, attempts int) (*Supervisor, error) {
	s.closeCh = make(chan struct{})
	if err := s.bind(nil, attempts); err != nil {
		return nil, err
	}
	if s.opts.ProbeInterval > 0 {
		go s.probe()
	}
	return s, nil
}

// Supervise imports through importFn and returns a supervisor owning the
// resulting binding. importFn is re-run (with backoff) after every
// revocation; it must be safe for concurrent use with the calls. The
// first import is tried once: its error is returned as is.
func Supervise(importFn func() (*Binding, error), opts SupervisorOpts) (*Supervisor, error) {
	if importFn == nil {
		return nil, errors.New("lrpc: Supervise requires an import function")
	}
	opts.fill(time.Millisecond, 100*time.Millisecond, 50*time.Millisecond)
	return supervise(&Supervisor{opts: opts, resolve: func(*TransparentBinding) (*TransparentBinding, error) {
		b, err := importFn()
		switch {
		case err != nil:
			return nil, err
		case b == nil:
			return nil, ErrNotExported
		case b.Revoked():
			// Import raced a termination and handed back an
			// already-revoked binding; a miss like any other.
			return nil, ErrRevoked
		}
		return BindLocal(b), nil
	}}, 1)
}

// SuperviseShm dials the first session and supervises it: dial is re-run
// with backoff whenever the session dies or its binding is revoked
// (server restart, export termination, peer crash). The first dial is
// tried once; where the shm plane is unsupported, dial — DialShm — fails
// and so does SuperviseShm.
func SuperviseShm(dial func() (*ShmClient, error), opts SupervisorOpts) (*Supervisor, error) {
	opts.fill(time.Millisecond, 100*time.Millisecond, 50*time.Millisecond)
	return supervise(&Supervisor{opts: opts, resolve: func(*TransparentBinding) (*TransparentBinding, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return BindShm(c), nil
	}}, 1)
}

// Binding returns the current binding: nil after Close, and possibly a
// dead one while a rebind is in flight.
func (s *Supervisor) Binding() *TransparentBinding { return s.cur.Load() }

// Stats snapshots the recovery counters and the bound endpoint.
func (s *Supervisor) Stats() SupervisorStats {
	st := SupervisorStats{
		Resolves:  s.resolves.Load(),
		Rebinds:   s.rebinds.Load(),
		Failovers: s.failovers.Load(),
	}
	if tb := s.cur.Load(); tb != nil {
		st.Endpoint = tb.ep
	}
	return st
}

// Close stops the prober, fails waiting and later calls with
// ErrSupervisorClosed, and releases the current binding's transport (an
// in-process binding holds none). It does not wait out a resolve in
// flight: a binding that resolve yields is closed unused.
func (s *Supervisor) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.closeCh)
	s.mu.Unlock()
	err := s.cur.Swap(nil).Close() // bound since the constructor returned
	if s.release != nil {
		err = errors.Join(err, s.release())
	}
	return err
}

// Call invokes the procedure through the current binding, recovering
// across domain termination.
func (s *Supervisor) Call(proc int, args []byte) ([]byte, error) {
	return s.CallContext(context.Background(), proc, args)
}

// CallContext is Call under a context: the deadline bounds the call and
// any wait on a rebind.
func (s *Supervisor) CallContext(ctx context.Context, proc int, args []byte) ([]byte, error) {
	lastErr := ErrRevoked // every binding this call found was dead
	for attempt := 0; attempt <= s.opts.RebindAttempts; attempt++ {
		tb := s.cur.Load()
		if !tb.dead() {
			res, err := tb.CallContext(ctx, proc, args)
			if err == nil {
				return res, nil
			}
			lastErr = err
			if errors.Is(err, ErrRevoked) || errors.Is(err, ErrCallFailed) {
				// The domain behind the binding is gone, or presumed
				// so: a revoked binding never carries a call again.
				tb.condemned.Store(true)
			}
			if tb.sole() {
				return nil, err // nowhere else to send it: the refusal stands
			}
			if !replaySafe(err, s.opts.RetryFailedCalls) {
				if errors.Is(err, ErrCallFailed) || errors.Is(err, ErrCallTimeout) || errors.Is(err, ErrConnClosed) {
					// The call may have run, so it is not re-sent;
					// recover in the background so the next call
					// finds a live binding.
					go func() { _ = s.rebind(context.Background(), tb) }()
				}
				return nil, err
			}
		}
		if err := s.rebind(ctx, tb); err != nil {
			return nil, err
		}
	}
	return nil, lastErr
}

// sole reports whether tb is live and the supervisor's only target: it
// came from no registry endpoint, so a rebind could only reach the same
// server again. A call that fails on it is returned as is: there is
// nothing to replay onto and nothing to recover.
func (tb *TransparentBinding) sole() bool {
	return tb.ep == (Endpoint{}) && !tb.dead()
}

// replaySafe is the supervisor's at-most-once rule (§5.3): whether a call
// that failed with err may be sent again. It may when the call provably
// never ran — refused before dispatch, never sent, vouched not executed
// by the server, or a chain whose head stage never ran — and, when the
// caller declared the interface idempotent (retryFailed), when its
// handler failed. A timeout or a connection lost after the write never
// qualifies: the server may have executed the call.
func replaySafe(err error, retryFailed bool) bool {
	var ce *ChainError
	if errors.As(err, &ce) {
		return ce.Executed == 0
	}
	return errors.Is(err, ErrRevoked) || // binding revoked before dispatch
		errors.Is(err, ErrNotExported) || // name unknown at this endpoint
		errors.Is(err, ErrOverload) || // shed by admission control
		errors.Is(err, ErrNoAStacks) || // rejected before activation
		errors.Is(err, ErrNotSent) || // no byte reached the wire
		errors.Is(err, ErrNotExecuted) || // server vouched non-execution
		errors.Is(err, ErrBreakerOpen) || // failed fast, nothing sent
		errors.Is(err, ErrShmUnsupported) || // plane missing, nothing sent
		retryFailed && errors.Is(err, ErrCallFailed)
}

// rebind replaces a stale binding, single-flight: the first caller
// starts a recovery round, and every caller — that one included — waits
// for it under its own context, so no caller is held past its deadline
// or Close, and no lock is held across a resolve or a backoff.
func (s *Supervisor) rebind(ctx context.Context, stale *TransparentBinding) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSupervisorClosed
	}
	if cur := s.cur.Load(); cur != stale && !cur.dead() {
		s.mu.Unlock()
		return nil // another caller already recovered
	}
	done := s.rebindDone
	if done == nil {
		done = make(chan struct{})
		s.rebindDone = done
		go func() {
			err := s.bind(stale, s.opts.RebindAttempts)
			s.mu.Lock()
			s.rebindDone, s.rebindErr = nil, err
			s.mu.Unlock()
			close(done)
		}()
	}
	s.mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
		return timeoutError(ctx.Err())
	case <-s.closeCh:
		return ErrSupervisorClosed
	}
	s.mu.Lock()
	err := s.rebindErr
	s.mu.Unlock()
	return err // after Close the caller's next pass finds no binding
}

// bind is one recovery round: up to attempts resolver runs under capped
// exponential backoff, until one yields a binding or the supervisor
// closes. A failed first bind returns the resolver's last error; a
// failed rebind wraps it in ErrRevoked, the binding it replaces being
// dead.
func (s *Supervisor) bind(stale *TransparentBinding, attempts int) error {
	backoff := s.opts.RebindBackoffInitial
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-s.closeCh:
				t.Stop()
				return ErrSupervisorClosed
			}
			backoff = min(2*backoff, s.opts.RebindBackoffMax)
		}
		s.resolves.Add(1)
		tb, err := s.resolve(stale)
		if err == nil {
			return s.install(tb)
		}
		lastErr = err
	}
	if stale == nil {
		return lastErr
	}
	return fmt.Errorf("%w: no binding after %d attempts: %w", ErrRevoked, attempts, lastErr)
}

// install publishes a fresh binding, releasing the one it replaces and
// accounting the rebind (and failover, when the endpoint changed).
func (s *Supervisor) install(tb *TransparentBinding) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = tb.Close() // nobody will call through it
		return ErrSupervisorClosed
	}
	old := s.cur.Swap(tb)
	s.mu.Unlock()
	if old == nil {
		return nil // the first bind
	}
	_ = old.Close() // its transport is dead or condemned
	s.rebinds.Add(1)
	s.emit(TraceRebind, tb)
	if old.ep != tb.ep {
		s.failovers.Add(1)
		s.emit(TraceFailover, tb)
	}
	return nil
}

// emit reports a recovery event to the SuperviseReplicated tracer when
// one is set, else to an in-process binding's System.
func (s *Supervisor) emit(kind TraceKind, tb *TransparentBinding) {
	switch {
	case s.tracer != nil:
		s.tracer.TraceEvent(TraceEvent{Kind: kind, Iface: s.name, Proc: tb.ep.String()})
	case tb.local != nil:
		tb.local.sys.emitTrace(kind, tb.local.exp.iface.Name, "", nil)
	}
}

// probe is the background health check: a dead binding is rebound ahead
// of the next call, and an in-process one has its System's orphans
// reaped.
func (s *Supervisor) probe() {
	t := time.NewTicker(s.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.closeCh:
			return
		case <-t.C:
		}
		tb := s.cur.Load()
		if tb.dead() {
			_ = s.rebind(context.Background(), tb)
		}
		if tb != nil && tb.local != nil {
			tb.local.sys.ReapOrphans()
		}
	}
}

// dead reports whether tb can never carry a call again: nil (the
// supervisor closed), condemned by a call's error, a revoked in-process
// binding, or a shm session or TCP client that died or was closed.
func (tb *TransparentBinding) dead() bool {
	switch {
	case tb == nil || tb.condemned.Load():
		return true
	case tb.local != nil:
		return tb.local.Revoked()
	case tb.shm != nil:
		return tb.shm.gone()
	}
	select {
	case <-tb.remote.closedCh:
		return true
	default:
		return false
	}
}

// Revoked reports whether the binding has been revoked (its exporting
// domain terminated). A revoked binding never carries a call again; a
// Supervisor is the recovery path.
func (b *Binding) Revoked() bool { return b.rec == nil || b.rec.revoked.Load() }

// --- Orphan-activation accounting ---

// orphanRec labels one abandoned activation in the system registry.
type orphanRec struct {
	exp  *Export
	proc string
}

// addOrphan registers an activation its caller abandoned: the handler is
// still running (possibly inside a terminated export) and still holds its
// A-stack. Registered system-wide so orphans survive the export being
// unregistered by Terminate.
func (s *System) addOrphan(act *activation, e *Export, proc string) {
	s.orphanMu.Lock()
	if s.orphans == nil {
		s.orphans = make(map[*activation]orphanRec)
	}
	s.orphans[act] = orphanRec{exp: e, proc: proc}
	s.orphanMu.Unlock()
}

// ReapOrphans sweeps the orphan registry: activations whose handlers
// have since returned are reaped (their A-stacks were reclaimed by the
// activation itself; the reap closes the books and emits TraceReap),
// the rest are reported as live. A Supervisor over an in-process
// binding runs this on its probe tick; callers may invoke it directly.
func (s *System) ReapOrphans() (reaped, live int) {
	var done []orphanRec
	s.orphanMu.Lock()
	for act, rec := range s.orphans {
		select {
		case <-act.done:
			delete(s.orphans, act)
			done = append(done, rec)
		default:
			live++
		}
	}
	s.orphanMu.Unlock()
	for _, rec := range done {
		s.reaped.Add(1)
		s.emitTrace(TraceReap, rec.exp.iface.Name, rec.proc, nil)
	}
	return len(done), live
}

// Orphans returns the number of live orphaned activations system-wide:
// abandoned calls whose handlers have not yet returned.
func (s *System) Orphans() int {
	n := 0
	s.orphanMu.Lock()
	for act := range s.orphans {
		select {
		case <-act.done:
		default:
			n++
		}
	}
	s.orphanMu.Unlock()
	return n
}

// Reaped returns how many orphaned activations have been reaped.
func (s *System) Reaped() uint64 { return s.reaped.Load() }

// Orphans returns the export's share of the live orphan registry.
func (e *Export) Orphans() int {
	n := 0
	e.sys.orphanMu.Lock()
	for act, rec := range e.sys.orphans {
		if rec.exp != e {
			continue
		}
		select {
		case <-act.done:
		default:
			n++
		}
	}
	e.sys.orphanMu.Unlock()
	return n
}
