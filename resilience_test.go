package lrpc

// Tests for the overload-control and supervised-recovery subsystem
// (resilience.go): admission caps and the priority-ordered wait queue,
// deadline-aware shedding, breaker state transitions (unit-level, on a
// synthetic clock), supervised rebinding across Terminate, and the
// orphan-activation reaper.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedInterface is an interface whose single procedure parks on the
// returned channel until the test releases it — the deterministic way to
// hold admission slots occupied.
func gatedInterface(name string) (*Interface, chan struct{}) {
	gate := make(chan struct{})
	return &Interface{
		Name: name,
		Procs: []Proc{{
			Name: "Hold", AStackSize: 16, NumAStacks: 8,
			Handler: func(c *Call) { <-gate; c.ResultsBuf(0) },
		}},
	}, gate
}

func TestAdmissionShedsAtCap(t *testing.T) {
	sys := NewSystem()
	iface, gate := gatedInterface("Gated")
	e, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	e.SetAdmission(AdmissionConfig{MaxConcurrent: 2, MaxQueue: 0})
	b, err := sys.Import("Gated")
	if err != nil {
		t.Fatal(err)
	}
	log := NewTraceLog(64)
	sys.SetTracer(log)

	// Fill the cap with two held calls.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Call(0, nil); err != nil {
				t.Errorf("held call: %v", err)
			}
		}()
	}
	waitFor(t, func() bool { return e.Active() == 2 })

	// With no queue, the third call sheds immediately — no parking, no
	// A-stack checkout.
	if _, err := b.Call(0, nil); !errors.Is(err, ErrOverload) {
		t.Fatalf("call at cap: got %v, want ErrOverload", err)
	}
	// A call whose deadline already passed sheds before parking even if
	// a queue exists.
	e.SetAdmission(AdmissionConfig{MaxConcurrent: 2, MaxQueue: 4})
	// Note: reconfiguring resets the inflight count, but the two held
	// calls drain against the old controller, so re-fill the new one.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Call(0, nil); err != nil {
				t.Errorf("held call: %v", err)
			}
		}()
	}
	waitFor(t, func() bool { return e.Active() == 4 })
	_, err = b.CallWithOpts(0, nil, CallOpts{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("over-deadline call: got %v, want ErrOverload", err)
	}

	if got := e.Sheds(); got != 2 {
		t.Errorf("Sheds = %d, want 2", got)
	}
	if got := log.Count(TraceShed); got != 2 {
		t.Errorf("TraceShed count = %d, want 2", got)
	}
	sn := e.MetricsSnapshot()
	if sn.Sheds != 2 {
		t.Errorf("snapshot Sheds = %d, want 2", sn.Sheds)
	}
	if sn.Admission == nil || sn.Admission.MaxConcurrent != 2 || sn.Admission.Inflight != 2 {
		t.Errorf("snapshot Admission = %+v, want cap 2, inflight 2", sn.Admission)
	}

	close(gate)
	wg.Wait()
}

func TestAdmissionQueueGrantsOnExit(t *testing.T) {
	sys := NewSystem()
	iface, gate := gatedInterface("Gated")
	e, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	e.SetAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 2})
	b, err := sys.Import("Gated")
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := b.Call(0, nil)
			results <- err
		}()
	}
	// One runs, two queue; releasing the gate drains all three through
	// the single slot.
	waitFor(t, func() bool {
		a := e.admission.Load()
		return e.Active() == 1 && a != nil && int(a.waiters.Load()) == 2
	})
	close(gate)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued call %d: %v", i, err)
		}
	}
	if got := e.Sheds(); got != 0 {
		t.Errorf("Sheds = %d, want 0 (queue absorbed the burst)", got)
	}
}

func TestAdmissionPriorityEviction(t *testing.T) {
	sys := NewSystem()
	iface, gate := gatedInterface("Gated")
	e, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	e.SetAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
	b, err := sys.Import("Gated")
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the slot, then park a low-priority waiter in the queue.
	holdDone := make(chan error, 1)
	go func() {
		_, err := b.Call(0, nil)
		holdDone <- err
	}()
	waitFor(t, func() bool { return e.Active() == 1 })
	lowDone := make(chan error, 1)
	go func() {
		_, err := b.CallWithOpts(0, nil, CallOpts{Priority: PriorityLow})
		lowDone <- err
	}()
	adm := e.admission.Load()
	waitFor(t, func() bool { return adm.waiters.Load() == 1 })

	// A high-priority arrival finds the queue full and evicts the
	// low-priority waiter: low sheds first.
	highDone := make(chan error, 1)
	go func() {
		_, err := b.CallWithOpts(0, nil, CallOpts{Priority: PriorityHigh})
		highDone <- err
	}()
	if err := <-lowDone; !errors.Is(err, ErrOverload) {
		t.Fatalf("evicted low-priority call: got %v, want ErrOverload", err)
	}
	// A second low-priority arrival cannot evict the queued high call
	// and sheds itself.
	if _, err := b.CallWithOpts(0, nil, CallOpts{Priority: PriorityLow}); !errors.Is(err, ErrOverload) {
		t.Fatalf("low-priority call against full high queue: got %v, want ErrOverload", err)
	}

	close(gate)
	if err := <-holdDone; err != nil {
		t.Fatalf("holding call: %v", err)
	}
	if err := <-highDone; err != nil {
		t.Fatalf("high-priority call: %v", err)
	}
	if got := e.Sheds(); got != 2 {
		t.Errorf("Sheds = %d, want 2", got)
	}
}

func TestAdmissionTerminateWakesWaiters(t *testing.T) {
	sys := NewSystem()
	iface, gate := gatedInterface("Gated")
	e, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	e.SetAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4})
	b, err := sys.Import("Gated")
	if err != nil {
		t.Fatal(err)
	}
	go b.Call(0, nil) // occupies the slot and parks on the gate
	waitFor(t, func() bool { return e.Active() == 1 })
	waiterErr := make(chan error, 1)
	go func() {
		_, err := b.Call(0, nil)
		waiterErr <- err
	}()
	adm := e.admission.Load()
	waitFor(t, func() bool { return adm.waiters.Load() == 1 })

	e.Terminate()
	if err := <-waiterErr; !errors.Is(err, ErrRevoked) {
		t.Fatalf("admission waiter after Terminate: got %v, want ErrRevoked", err)
	}
	// Calls after termination shed with ErrRevoked at the admission
	// gate, same as validate would decide.
	if _, err := b.Call(0, nil); !errors.Is(err, ErrRevoked) {
		t.Fatalf("call after Terminate: got %v, want ErrRevoked", err)
	}
	close(gate)
}

func TestAdmissionDeadlineBoundsQueueWait(t *testing.T) {
	sys := NewSystem()
	iface, gate := gatedInterface("Gated")
	e, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	defer close(gate)
	e.SetAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4})
	b, err := sys.Import("Gated")
	if err != nil {
		t.Fatal(err)
	}
	go b.Call(0, nil)
	waitFor(t, func() bool { return e.Active() == 1 })

	// The slot never frees, so the queued call must shed at its deadline
	// — with ErrOverload, not ErrCallTimeout: it never started running.
	start := time.Now()
	_, err = b.CallWithOpts(0, nil, CallOpts{Deadline: time.Now().Add(20 * time.Millisecond)})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("queued call at deadline: got %v, want ErrOverload", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("shed took %v, deadline was 20ms", waited)
	}
	if adm := e.admission.Load(); adm.waiters.Load() != 0 {
		t.Errorf("waiter not removed from queue after shed")
	}
}

// TestBreakerStateMachine drives the breaker on a synthetic clock: no
// sleeps, every transition asserted.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	br := newBreaker(2, 100*time.Millisecond, 400*time.Millisecond)

	// Closed: calls flow, one failure is below threshold.
	if _, err := br.allow(now); err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
	if br.failure(now) {
		t.Fatal("single failure opened a threshold-2 breaker")
	}
	if !br.failure(now) {
		t.Fatal("second consecutive failure did not open the breaker")
	}

	// Open: fail fast during the cooldown.
	if _, err := br.allow(now.Add(50 * time.Millisecond)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}
	if br.rejects.Load() != 1 {
		t.Errorf("rejects = %d, want 1", br.rejects.Load())
	}

	// After the cooldown exactly one caller becomes the probe; a second
	// concurrent caller still fails fast.
	probe, err := br.allow(now.Add(150 * time.Millisecond))
	if err != nil || !probe {
		t.Fatalf("post-cooldown allow = (%v, %v), want probe", probe, err)
	}
	if _, err := br.allow(now.Add(150 * time.Millisecond)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second caller during half-open: %v, want ErrBreakerOpen", err)
	}

	// Probe failure re-opens with a doubled cooldown.
	if !br.failure(now.Add(151 * time.Millisecond)) {
		t.Fatal("probe failure did not re-open the breaker")
	}
	if _, err := br.allow(now.Add(300 * time.Millisecond)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("breaker ignored the doubled cooldown")
	}
	probe, err = br.allow(now.Add(400 * time.Millisecond))
	if err != nil || !probe {
		t.Fatalf("allow after doubled cooldown = (%v, %v), want probe", probe, err)
	}

	// Probe success closes and resets the escalation.
	if !br.success() {
		t.Fatal("probe success did not close the breaker")
	}
	if _, err := br.allow(now.Add(401 * time.Millisecond)); err != nil {
		t.Fatalf("closed breaker rejected after recovery: %v", err)
	}
	br.mu.Lock()
	cd := br.cooldown
	br.mu.Unlock()
	if cd != 0 {
		t.Errorf("cooldown escalation not reset on recovery: %v", cd)
	}
}

func TestSupervisorRebindAcrossTerminate(t *testing.T) {
	sys := NewSystem()
	export := func() (*Export, error) {
		return sys.Export(&Interface{Name: "Svc", Procs: []Proc{{
			Name: "Add", AStackSize: 16, NumAStacks: 4,
			Handler: func(c *Call) {
				a := binary.LittleEndian.Uint32(c.Args()[0:4])
				b := binary.LittleEndian.Uint32(c.Args()[4:8])
				binary.LittleEndian.PutUint32(c.ResultsBuf(4), a+b)
			},
		}}})
	}
	e, err := export()
	if err != nil {
		t.Fatal(err)
	}
	log := NewTraceLog(64)
	sys.SetTracer(log)

	sup, err := Supervise(func() (*Binding, error) { return sys.Import("Svc") },
		SupervisorOpts{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	args := make([]byte, 8)
	binary.LittleEndian.PutUint32(args[0:4], 40)
	binary.LittleEndian.PutUint32(args[4:8], 2)
	res, err := sup.Call(0, args)
	if err != nil || binary.LittleEndian.Uint32(res) != 42 {
		t.Fatalf("call before terminate: %v, res=%v", err, res)
	}

	// Kill the domain and bring up a successor; the supervisor must
	// recover transparently on the next call.
	e.Terminate()
	if _, err := export(); err != nil {
		t.Fatal(err)
	}
	res, err = sup.Call(0, args)
	if err != nil || binary.LittleEndian.Uint32(res) != 42 {
		t.Fatalf("call across terminate: %v, res=%v", err, res)
	}
	if sup.Stats().Rebinds == 0 {
		t.Error("supervisor recovered without recording a rebind")
	}
	if log.Count(TraceRebind) == 0 {
		t.Error("no TraceRebind event emitted")
	}
	if sup.Binding().local.Revoked() {
		t.Error("current binding is revoked after recovery")
	}

	// A closed supervisor fails calls with ErrSupervisorClosed.
	sup.Close()
	if _, err := sup.Call(0, args); !errors.Is(err, ErrSupervisorClosed) {
		t.Fatalf("call on closed supervisor: got %v", err)
	}
}

func TestSupervisorRebindGivesUp(t *testing.T) {
	sys := NewSystem()
	e, err := sys.Export(&Interface{Name: "Gone", Procs: []Proc{{
		Name: "P", AStackSize: 8, Handler: func(c *Call) { c.ResultsBuf(0) },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(func() (*Binding, error) { return sys.Import("Gone") },
		SupervisorOpts{
			RebindAttempts:       3,
			RebindBackoffInitial: time.Microsecond,
			RebindBackoffMax:     time.Microsecond,
			ProbeInterval:        -1,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	e.Terminate() // nobody re-exports: rebind must exhaust its budget
	if _, err := sup.Call(0, nil); !errors.Is(err, ErrRevoked) {
		t.Fatalf("call with no successor: got %v, want ErrRevoked", err)
	}
}

// TestSuperviseFirstBindFailsFast: the constructor tries the first
// import once and returns its error as is — no backoff round, no
// ErrRevoked wrap for a binding that never existed.
func TestSuperviseFirstBindFailsFast(t *testing.T) {
	imports := 0
	_, err := Supervise(func() (*Binding, error) { imports++; return nil, ErrNotExported }, SupervisorOpts{})
	if !errors.Is(err, ErrNotExported) || errors.Is(err, ErrRevoked) {
		t.Fatalf("first bind = %v, want ErrNotExported alone", err)
	}
	if imports != 1 {
		t.Fatalf("first bind ran the import %d times, want 1", imports)
	}
}

// TestReplaySafe pins the supervisor's one at-most-once rule: a call is
// replayed only when it provably never ran, or when it failed in its
// handler and the caller declared the interface idempotent.
func TestReplaySafe(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool // without RetryFailedCalls; with it only ErrCallFailed flips
	}{
		{"revoked", ErrRevoked, true},
		{"not sent", notSent(ErrConnClosed), true},
		{"not executed", &RemoteError{Msg: "lrpc: revoked", NotExecuted: true}, true},
		{"overload", ErrOverload, true},
		{"no astacks", ErrNoAStacks, true},
		{"breaker open", ErrBreakerOpen, true},
		{"call failed", fmt.Errorf("%w: shm peer died mid-call", ErrCallFailed), false},
		{"written frame", ErrConnClosed, false},
		{"timeout", timeoutError(context.DeadlineExceeded), false},
		{"chain head never ran", &ChainError{Stage: 0, Executed: 0, Err: ErrOverload}, true},
		{"chain stage 0 ran", &ChainError{Stage: 1, Executed: 1, Err: ErrRevoked}, false},
	}
	for _, tc := range cases {
		for _, retryFailed := range []bool{false, true} {
			want := tc.want || retryFailed && tc.name == "call failed"
			if got := replaySafe(tc.err, retryFailed); got != want {
				t.Errorf("%s (RetryFailedCalls=%v): replaySafe = %v, want %v", tc.name, retryFailed, got, want)
			}
		}
	}
}

// TestSupervisorOverloadNotRebound: an in-process supervisor has no other
// target, so a shed call returns ErrOverload at once — no rebind, no
// replay against the same full export.
func TestSupervisorOverloadNotRebound(t *testing.T) {
	sys := NewSystem()
	iface, gate := gatedInterface("Busy")
	e, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	e.SetAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 0})
	sup, err := Supervise(func() (*Binding, error) { return sys.Import("Busy") },
		SupervisorOpts{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	held := make(chan error, 1)
	go func() {
		_, err := sup.Call(0, nil)
		held <- err
	}()
	for e.Active() == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	_, err = sup.Call(0, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("call at the cap = %v, want ErrOverload", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("shed took %v, want an immediate return", elapsed)
	}
	if st := sup.Stats(); st.Rebinds != 0 || st.Resolves != 1 {
		t.Errorf("shed call rebound the supervisor or ran its resolver: %+v", st)
	}
	if n := e.Sheds(); n != 1 {
		t.Errorf("export shed %d calls, want 1 (no replay)", n)
	}
	close(gate)
	if err := <-held; err != nil {
		t.Fatalf("held call = %v", err)
	}
}

// TestSupervisorRetryFailedCalls: a handler failure condemns the binding
// even though its export lives on, so the supervisor re-imports; the
// call is replayed only when the caller opted in.
func TestSupervisorRetryFailedCalls(t *testing.T) {
	for _, retry := range []bool{false, true} {
		sys := NewSystem()
		var calls int
		if _, err := sys.Export(&Interface{Name: "Flaky", Procs: []Proc{{
			Name: "P", AStackSize: 8,
			Handler: func(c *Call) {
				if calls++; calls == 1 {
					panic("first call fails")
				}
				c.ResultsBuf(0)
			},
		}}}); err != nil {
			t.Fatal(err)
		}
		sup, err := Supervise(func() (*Binding, error) { return sys.Import("Flaky") },
			SupervisorOpts{ProbeInterval: -1, RetryFailedCalls: retry})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sup.Call(0, nil)
		if retry && err != nil {
			t.Errorf("RetryFailedCalls: call = %v, want the replay to succeed", err)
		}
		if !retry && !errors.Is(err, ErrCallFailed) {
			t.Errorf("call = %v, want ErrCallFailed returned, not replayed", err)
		}
		// Without the opt-in the rebind runs in the background; the next
		// call joins it.
		if _, err := sup.Call(0, nil); err != nil {
			t.Errorf("RetryFailedCalls=%v: next call = %v", retry, err)
		}
		runs := 2 // the failed call, then the next one
		if retry {
			runs = 3 // the replay runs in between
		}
		if st := sup.Stats(); st.Rebinds != 1 || calls != runs {
			t.Errorf("RetryFailedCalls=%v: %+v after %d handler runs, want 1 rebind and %d runs", retry, st, calls, runs)
		}
		sup.Close()
	}
}

func TestOrphanReaper(t *testing.T) {
	sys := NewSystem()
	iface, gate := gatedInterface("Gated")
	e, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Gated")
	if err != nil {
		t.Fatal(err)
	}
	log := NewTraceLog(64)
	sys.SetTracer(log)

	// Abandon a call whose handler is pinned on the gate: the activation
	// becomes an orphan.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := b.CallContext(ctx, 0, nil); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("abandoned call: got %v, want ErrCallTimeout", err)
	}
	if got := sys.Orphans(); got != 1 {
		t.Fatalf("Orphans = %d, want 1 while the handler is pinned", got)
	}
	if got := e.Orphans(); got != 1 {
		t.Fatalf("export Orphans = %d, want 1", got)
	}
	if reaped, live := sys.ReapOrphans(); reaped != 0 || live != 1 {
		t.Fatalf("ReapOrphans while pinned = (%d, %d), want (0, 1)", reaped, live)
	}

	// Terminating the export does not lose the orphan: it lives in the
	// system registry, exactly because the export is now unreachable.
	e.Terminate()
	if got := sys.Orphans(); got != 1 {
		t.Fatalf("Orphans after Terminate = %d, want 1", got)
	}

	// Release the handler; once the activation returns, the reaper
	// closes the books.
	close(gate)
	waitFor(t, func() bool {
		reaped, _ := sys.ReapOrphans()
		return reaped == 1
	})
	if got := sys.Orphans(); got != 0 {
		t.Errorf("Orphans after reap = %d, want 0", got)
	}
	if got := sys.Reaped(); got != 1 {
		t.Errorf("Reaped = %d, want 1", got)
	}
	if got := log.Count(TraceReap); got != 1 {
		t.Errorf("TraceReap count = %d, want 1", got)
	}
	if n := b.Outstanding(); n != 0 {
		t.Errorf("%d A-stacks leaked by the orphaned activation", n)
	}
}

// TestCallZeroAllocsWithAdmission asserts the tentpole constraint: an
// armed but uncontended admission controller adds no allocations to the
// fast path (one atomic load + one CAS, no mutex, no channel).
func TestCallZeroAllocsWithAdmission(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts not meaningful")
	}
	sys := NewSystem()
	e, err := sys.Export(arithInterface())
	if err != nil {
		t.Fatal(err)
	}
	e.SetAdmission(AdmissionConfig{MaxConcurrent: 64, MaxQueue: 8})
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	args := make([]byte, 8)
	for i := 0; i < 16; i++ {
		if _, err := b.Call(2, args); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.Call(2, args); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Null Call with admission armed allocates %.1f objects/op, want 0", allocs)
	}
	if e.Sheds() != 0 {
		t.Errorf("uncontended run shed %d calls", e.Sheds())
	}
}

// waitFor polls cond until it holds or the test deadline budget expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestSupervisorShedRacingRevoke drives load shedding and domain
// termination together: callers are shed at the admission cap while the
// export is terminated and re-exported under them. A call either returns
// the handler's result or an error — never a nil result with a nil error
// for a call no handler ran.
func TestSupervisorShedRacingRevoke(t *testing.T) {
	sys := NewSystem()
	export := func() *Export {
		e, err := sys.Export(&Interface{Name: "Shed", Procs: []Proc{{
			Name: "P", AStackSize: 8, NumAStacks: 2,
			Handler: func(c *Call) { time.Sleep(20 * time.Microsecond); c.ResultsBuf(1)[0] = 7 },
		}}})
		if err != nil {
			t.Fatal(err)
		}
		e.SetAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 0})
		return e
	}
	cur := export()
	sup, err := Supervise(func() (*Binding, error) { return sys.Import("Shed") }, SupervisorOpts{
		RebindBackoffInitial: time.Microsecond,
		RebindBackoffMax:     50 * time.Microsecond,
		ProbeInterval:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var empty, ok atomic.Int64
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sup.Call(0, nil)
				switch {
				case err == nil && len(res) == 1 && res[0] == 7:
					ok.Add(1)
				case err == nil:
					empty.Add(1)
				default:
					runtime.Gosched() // a shed returns at once; let the terminator run
				}
			}
		}()
	}
	for range 200 {
		time.Sleep(200 * time.Microsecond)
		cur.Terminate()
		cur = export()
	}
	close(stop)
	wg.Wait()
	if n := empty.Load(); n != 0 {
		t.Fatalf("%d calls returned a nil result with a nil error (%d real results)", n, ok.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no call succeeded")
	}
}
