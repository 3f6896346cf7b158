//go:build linux

package lrpc

// Integration tests for the shared-memory plane. Client and server run
// in one test process here — the segment, rings, fd passing, and futex
// protocol are identical to the two-process case (the same bytes reach
// both sides through the same mmap) — while the genuinely two-process
// scenarios (peer kill mid-call) live in internal/faultinject, which
// can re-exec the test binary.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func shmTestIface(name string, hold chan struct{}) *Interface {
	return &Interface{
		Name: name,
		Procs: []Proc{
			{Name: "Echo", Handler: func(c *Call) {
				args := c.Args()
				buf := c.ResultsBuf(len(args))
				copy(buf, args)
			}},
			{Name: "Null", Handler: func(c *Call) { c.ResultsBuf(0) }},
			{Name: "Hold", Handler: func(c *Call) {
				if hold != nil {
					<-hold
				}
				c.ResultsBuf(0)
			}},
			{Name: "Big", Handler: func(c *Call) {
				// Results deliberately exceed any small slot: 64 KiB.
				buf := c.ResultsBuf(64 << 10)
				for i := range buf {
					buf[i] = byte(i)
				}
			}},
		},
	}
}

// startShm exports iface on a fresh system and serves it on a socket in
// t's temp dir, returning the server, the socket path, and the export.
func startShm(t *testing.T, iface *Interface, opts ShmServeOptions) (*ShmServer, string, *Export) {
	t.Helper()
	sys := NewSystem()
	exp, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "lrpc.sock")
	l, err := ListenShm(sock)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewShmServer(sys, opts)
	go sv.Serve(l)
	t.Cleanup(func() { sv.Close() })
	return sv, sock, exp
}

func TestShmRoundTrip(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		msg := []byte(fmt.Sprintf("payload %d", i))
		out, err := c.Call(0, msg)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(out) != string(msg) {
			t.Fatalf("call %d echoed %q", i, out)
		}
	}
	if out, err := c.Call(1, nil); err != nil || len(out) != 0 {
		t.Fatalf("Null = %v, %v", out, err)
	}
	st := c.Stats()
	if st.Calls != 101 || st.Failures != 0 {
		t.Fatalf("client stats %+v", st)
	}
}

// TestShmDoorbellHitMissStats checks the server's idle-processor
// accounting: every dispatched doorbell is counted once, as taken
// before parking or after a park, and a call that arrives once every
// worker has parked is a park.
func TestShmDoorbellHitMissStats(t *testing.T) {
	sv, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if _, err := c.Call(1, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Long enough for every worker to run out its poll and yield phases
	// and park on the futex.
	time.Sleep(20 * time.Millisecond)
	parks := sv.Stats().ParkDoorbells
	if _, err := c.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	st := sv.Stats()
	if st.SpinDoorbells+st.ParkDoorbells != st.Calls || st.Calls != 51 {
		t.Fatalf("SpinDoorbells %d + ParkDoorbells %d, Calls %d; want a sum of 51",
			st.SpinDoorbells, st.ParkDoorbells, st.Calls)
	}
	if st.ParkDoorbells != parks+1 {
		t.Fatalf("call after an idle spell: ParkDoorbells %d -> %d, want one more", parks, st.ParkDoorbells)
	}
}

func TestShmBindErrors(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	if _, err := DialShm(sock, "NoSuch"); !errors.Is(err, ErrNotExported) {
		t.Fatalf("dial of unexported name = %v, want ErrNotExported", err)
	}
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(99, nil); !errors.Is(err, ErrBadProcedure) {
		t.Fatalf("bad proc = %v, want ErrBadProcedure", err)
	}
	big := make([]byte, c.SlotSize()+1)
	if _, err := c.Call(0, big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized args = %v, want ErrTooLarge", err)
	}
	// Results that cannot fit the pairwise slot surface as the size
	// exception too — the shm plane has no out-of-band channel.
	if _, err := c.Call(3, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized results = %v, want ErrTooLarge", err)
	}
}

func TestShmConcurrent(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{Workers: 4})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// More callers than slots: the extras queue on the free list.
	const callers, per = 16, 200
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, 0, 64)
			for i := 0; i < per; i++ {
				msg := fmt.Sprintf("g%d-i%d", g, i)
				out, err := c.CallAppend(0, []byte(msg), dst[:0])
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d: %w", g, i, err)
					return
				}
				if string(out) != msg {
					errs <- fmt.Errorf("caller %d call %d echoed %q", g, i, out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestShmTerminateRevokes(t *testing.T) {
	_, sock, exp := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	exp.Terminate()
	if _, err := c.Call(1, nil); !errors.Is(err, ErrRevoked) {
		t.Fatalf("call after Terminate = %v, want ErrRevoked", err)
	}
}

func TestShmCleanDetachStats(t *testing.T) {
	sv, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	shmWaitFor(t, time.Second, func() bool {
		st := sv.Stats()
		return st.ActiveSessions == 0 && st.CleanDetaches == 1 &&
			st.SegmentsReclaimed == 1 && st.SegmentBytes == 0
	}, func() string { return fmt.Sprintf("%+v", sv.Stats()) })
}

func TestShmServerCloseRevokesClient(t *testing.T) {
	tl := NewTraceLog(16)
	sv, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Tracer: tl})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	sv.Close()
	shmWaitFor(t, time.Second, func() bool {
		_, err := c.Call(1, nil)
		return errors.Is(err, ErrRevoked)
	}, func() string { return "calls still succeeding after server close" })
	if c.Stats().PeerCrashed {
		t.Fatal("clean server shutdown classified as a peer crash")
	}
}

func TestShmTornDoorbell(t *testing.T) {
	tornEvery := 3
	var n int
	var mu sync.Mutex
	faults := func() ShmFault {
		mu.Lock()
		defer mu.Unlock()
		n++
		return ShmFault{TornDoorbell: n%tornEvery == 0}
	}
	sv, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 60; i++ {
		out, err := c.Call(0, []byte("x"))
		if err != nil || string(out) != "x" {
			t.Fatalf("call %d under torn doorbells = %q, %v", i, out, err)
		}
	}
	shmWaitFor(t, time.Second, func() bool { return sv.Stats().TornDoorbells >= 20 },
		func() string { return fmt.Sprintf("%+v", sv.Stats()) })
}

func TestShmAbandonRecyclesSlot(t *testing.T) {
	hold := make(chan struct{})
	_, sock, exp := startShm(t, shmTestIface("Shm", hold), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.CallContext(ctx, 2, nil); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("held call = %v, want ErrCallTimeout", err)
	}
	// The single slot is still owned by the abandoned call; release the
	// handler and the orphan watcher must hand it back.
	close(hold)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(1, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after abandon = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("slot never recycled after the abandoned handler returned")
	}
	shmWaitFor(t, time.Second, func() bool { return exp.Active() == 0 },
		func() string { return fmt.Sprintf("active=%d", exp.Active()) })
}

func TestShmSupervisorRecovers(t *testing.T) {
	iface := shmTestIface("Shm", nil)
	sv1, sock, exp1 := startShm(t, iface, ShmServeOptions{})
	dial := func() (*ShmClient, error) { return DialShm(sock, "Shm") }
	sup, err := SuperviseShm(dial, SupervisorOpts{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if _, err := sup.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	// Kill the first server outright and bring up a successor on the
	// same socket path: the next calls ride a fresh segment.
	exp1.Terminate()
	sv1.Close()
	sys2 := NewSystem()
	if _, err := sys2.Export(iface); err != nil {
		t.Fatal(err)
	}
	l2, err := ListenShm(sock)
	if err != nil {
		t.Fatal(err)
	}
	sv2 := NewShmServer(sys2, ShmServeOptions{})
	go sv2.Serve(l2)
	defer sv2.Close()
	if _, err := sup.Call(1, nil); err != nil {
		t.Fatalf("supervised call after server replacement = %v", err)
	}
	if sup.Stats().Rebinds == 0 {
		t.Fatal("supervisor recovered without recording a rebind")
	}
}

// TestShmSuperviseRebindsAfterExportTerminate: a terminated export on a
// live server answers ErrRevoked over a live session; the supervisor
// re-dials and binds the successor export.
func TestShmSuperviseRebindsAfterExportTerminate(t *testing.T) {
	iface := shmTestIface("Shm", nil)
	_, sock, exp := startShm(t, iface, ShmServeOptions{})
	sup, err := SuperviseShm(func() (*ShmClient, error) { return DialShm(sock, "Shm") },
		SupervisorOpts{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	exp.Terminate()
	if _, err := exp.sys.Export(iface); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Call(1, nil); err != nil {
		t.Fatalf("call after export terminate = %v", err)
	}
	if st := sup.Stats(); st.Rebinds != 1 {
		t.Fatalf("want 1 rebind, got %+v", st)
	}
}

// restartShm brings up a successor server for iface on sock, the path a
// killed server listened on.
func restartShm(t *testing.T, iface *Interface, sock string) {
	t.Helper()
	sys := NewSystem()
	if _, err := sys.Export(iface); err != nil {
		t.Fatal(err)
	}
	l, err := ListenShm(sock)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewShmServer(sys, ShmServeOptions{})
	go sv.Serve(l)
	t.Cleanup(func() { sv.Close() })
}

// TestShmSuperviseProbeRecovers: with the prober on, a supervisor whose
// server died rebinds to the successor before any call is made.
func TestShmSuperviseProbeRecovers(t *testing.T) {
	const probe = 5 * time.Millisecond
	iface := shmTestIface("Shm", nil)
	sv1, sock, _ := startShm(t, iface, ShmServeOptions{})
	sup, err := SuperviseShm(func() (*ShmClient, error) { return DialShm(sock, "Shm") },
		SupervisorOpts{ProbeInterval: probe})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sv1.Close()
	restartShm(t, iface, sock)
	shmWaitFor(t, 20*probe, func() bool { return sup.Stats().Rebinds > 0 },
		func() string { return fmt.Sprintf("%+v", sup.Stats()) })
	if _, err := sup.Call(1, nil); err != nil {
		t.Fatalf("call after probed recovery = %v", err)
	}
}

// superviseDeadShm returns a supervisor, prober off, whose server has
// been closed and whose session the client has seen die: every rebind
// now dials a socket nobody serves.
func superviseDeadShm(t *testing.T) *Supervisor {
	t.Helper()
	sv, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	sup, err := SuperviseShm(func() (*ShmClient, error) { return DialShm(sock, "Shm") },
		SupervisorOpts{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })
	if _, err := sup.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	sv.Close()
	shmWaitFor(t, time.Second, func() bool { return sup.Binding().Shm().gone() },
		func() string { return "session still live after server close" })
	return sup
}

// TestShmSuperviseRebindHonorsDeadline: a caller waiting on the rebind
// of a dead server leaves at its own deadline with ErrCallTimeout, not
// after the rebind budget.
func TestShmSuperviseRebindHonorsDeadline(t *testing.T) {
	sup := superviseDeadShm(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sup.CallContext(ctx, 1, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("call with a 20ms deadline = %v, want ErrCallTimeout", err)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("call with a 20ms deadline took %v", elapsed)
	}
}

// TestShmSuperviseCloseDuringRebind: Close does not wait out a rebind in
// flight, and the caller waiting on it gets ErrSupervisorClosed.
func TestShmSuperviseCloseDuringRebind(t *testing.T) {
	sup := superviseDeadShm(t)
	errc := make(chan error, 1)
	go func() {
		_, err := sup.Call(1, nil)
		errc <- err
	}()
	// Past the first bind, a resolve is a redial: the caller is mid-rebind.
	shmWaitFor(t, time.Second, func() bool { return sup.Stats().Resolves > 1 },
		func() string { return fmt.Sprintf("%+v", sup.Stats()) })
	start := time.Now()
	sup.Close()
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("Close during a rebind took %v", elapsed)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrSupervisorClosed) {
			t.Fatalf("caller mid-rebind got %v, want ErrSupervisorClosed", err)
		}
	case <-time.After(250 * time.Millisecond):
		t.Fatal("caller mid-rebind still blocked after Close")
	}
}

func TestShmTransparentBindingThreeWay(t *testing.T) {
	iface := shmTestIface("Shm", nil)
	_, sock, _ := startShm(t, iface, ShmServeOptions{})
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tb := BindShm(c)
	if tb.Remote() || !tb.SameMachine() {
		t.Fatalf("BindShm classified as remote=%v sameMachine=%v", tb.Remote(), tb.SameMachine())
	}
	out, err := tb.Call(0, []byte("via shm"))
	if err != nil || string(out) != "via shm" {
		t.Fatalf("three-way shm call = %q, %v", out, err)
	}
	// And the in-process arm still wins when present.
	sysL := NewSystem()
	if _, err := sysL.Export(shmTestIface("Local", nil)); err != nil {
		t.Fatal(err)
	}
	bl, err := sysL.Import("Local")
	if err != nil {
		t.Fatal(err)
	}
	lb := BindLocal(bl)
	if lb.SameMachine() || lb.Remote() {
		t.Fatal("BindLocal misclassified")
	}
	if out, err := lb.Call(0, []byte("local")); err != nil || string(out) != "local" {
		t.Fatalf("three-way local call = %q, %v", out, err)
	}
}

// shmChainIface is the chain fixture for the shm plane: Echo, Inc
// (observable data flow), Boom (panic mid-chain), Big (results that
// cannot fit a small slot).
func shmChainIface() *Interface {
	return &Interface{
		Name: "ShmPipe",
		Procs: []Proc{
			{Name: "Echo", Handler: func(c *Call) {
				args := c.Args()
				copy(c.ResultsBuf(len(args)), args)
			}},
			{Name: "Inc", Handler: func(c *Call) {
				args := c.Args()
				out := c.ResultsBuf(len(args))
				for i, b := range args {
					out[i] = b + 1
				}
			}},
			{Name: "Boom", Handler: func(c *Call) { panic("boom") }},
			{Name: "Big", Handler: func(c *Call) {
				buf := c.ResultsBuf(64 << 10)
				for i := range buf {
					buf[i] = byte(i)
				}
			}},
		},
	}
}

func TestShmChainRoundTrip(t *testing.T) {
	_, sock, exp := startShm(t, shmChainIface(), ShmServeOptions{})
	c, err := DialShm(sock, "ShmPipe")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One descriptor, one doorbell, three stages in the server's domain.
	out, err := c.CallChain(NewChain().Add(0, []byte("ab")).Add(1, nil).Add(1, nil))
	if err != nil || string(out) != "cd" {
		t.Fatalf("shm chain = %q, %v", out, err)
	}
	// Slicing works across the slot boundary too.
	out, err = c.CallChain(NewChain().Add(0, []byte("abcdefg")).AddSlice(1, nil, 2, 3))
	if err != nil || string(out) != "def" {
		t.Fatalf("shm sliced chain = %q, %v", out, err)
	}
	if exp.Chains() != 2 || exp.ChainStages() != 5 {
		t.Fatalf("server chain counters %d/%d, want 2/5", exp.Chains(), exp.ChainStages())
	}
	if st := c.Stats(); st.Chains != 2 {
		t.Fatalf("client stats %+v", st)
	}
	// The slot that carried a chain descriptor recycles cleanly into a
	// plain call: the direction word must not leak into the next
	// occupant.
	if out, err := c.Call(0, []byte("plain")); err != nil || string(out) != "plain" {
		t.Fatalf("plain call after chain = %q, %v", out, err)
	}
}

func TestShmChainVouchAcrossSlot(t *testing.T) {
	_, sock, _ := startShm(t, shmChainIface(), ShmServeOptions{})
	c, err := DialShm(sock, "ShmPipe")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A panic at stage 1 crosses the slot as a structured chain error
	// (code 7) and rebuilds the full vouch.
	_, err = c.CallChain(NewChain().Add(0, []byte("a")).Add(2, nil).Add(0, nil))
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 2 {
		t.Fatalf("shm chain panic: %v", err)
	}
	if !errors.Is(err, ErrCallFailed) || errors.Is(err, ErrNotExecuted) {
		t.Fatalf("shm chain panic classification: %v", err)
	}
	// A head-stage failure keeps the replay-safe classification.
	_, err = c.CallChain(NewChain().Add(99, nil).Add(0, nil))
	if !errors.As(err, &ce) || ce.Executed != 0 ||
		!errors.Is(err, ErrBadProcedure) || !errors.Is(err, ErrNotExecuted) {
		t.Fatalf("shm head failure: %v", err)
	}
	// A final result that cannot fit the slot surfaces as the size
	// exception with every stage vouched executed (the work ran; only
	// the reply could not cross).
	_, err = c.CallChain(NewChain().Add(0, nil).Add(3, nil))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized chain result: %v", err)
	}
	// A descriptor that cannot fit the slot is refused client-side.
	huge := NewChain().Add(0, make([]byte, c.SlotSize()))
	if _, err := c.CallChain(huge); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized descriptor: %v", err)
	}
}

func TestShmChainAsync(t *testing.T) {
	_, sock, _ := startShm(t, shmChainIface(), ShmServeOptions{})
	c, err := DialShm(sock, "ShmPipe")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.CallChainAsync(NewChain().Add(0, []byte("ab")).Add(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Wait()
	if err != nil || string(out) != "bc" {
		t.Fatalf("shm async chain = %q, %v", out, err)
	}
	f, err = c.CallChainAsync(NewChain().Add(0, []byte("a")).Add(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Wait()
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 2 {
		t.Fatalf("shm async chain failure: %v", err)
	}
	// Async chains and async calls share the completion plane.
	af, err := c.CallAsync(0, []byte("mix"))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := af.Wait(); err != nil || string(out) != "mix" {
		t.Fatalf("async call after async chain = %q, %v", out, err)
	}
}

func TestShmChainConcurrent(t *testing.T) {
	_, sock, _ := startShm(t, shmChainIface(), ShmServeOptions{Workers: 4})
	c, err := DialShmOpts(sock, "ShmPipe", ShmDialOptions{Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := []byte{byte(g)}
			for i := 0; i < 50; i++ {
				out, err := c.CallChain(NewChain().Add(0, seed).Add(1, nil).Add(1, nil))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d chain %d: %w", g, i, err)
					return
				}
				if len(out) != 1 || out[0] != byte(g)+2 {
					errs <- fmt.Errorf("goroutine %d chain %d = %v", g, i, out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// shmWaitFor polls cond until it holds or the deadline passes.
func shmWaitFor(t *testing.T, d time.Duration, cond func() bool, state func() string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition never held: %s", state())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
