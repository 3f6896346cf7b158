package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"lrpc"
)

// TestStressSuperviseTerminateRace races Supervise's re-import against
// Terminate + re-Export cycles, over many seeded iterations: the
// supervisor's single-flight rebind constantly observes bindings revoked
// mid-call, import hitting a name that is momentarily gone, and Import
// returning an already-revoked binding (the terminate/import race in
// lrpc.Import). Invariants: every call resolves as success, ErrCallFailed,
// or ErrRevoked (rebind budget exhausted) — never a hang, never a crash —
// and after quiesce no activation is running and no A-stack is leaked.
func TestStressSuperviseTerminateRace(t *testing.T) {
	const iterations = 40
	for it := 0; it < iterations; it++ {
		runSuperviseTerminate(t, int64(it))
		if t.Failed() {
			t.Fatalf("failed at seed %d", it)
		}
	}
}

func runSuperviseTerminate(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sys := lrpc.NewSystem()

	var mu sync.Mutex
	var exports []*lrpc.Export
	var bindings []*lrpc.Binding
	export := func() (*lrpc.Export, error) {
		e, err := sys.Export(&lrpc.Interface{Name: "Svc", Procs: []lrpc.Proc{{
			Name: "Echo", AStackSize: 32, NumAStacks: 2,
			Handler: func(c *lrpc.Call) { copy(c.ResultsBuf(len(c.Args())), c.Args()) },
		}}})
		if err != nil {
			return nil, err
		}
		mu.Lock()
		exports = append(exports, e)
		mu.Unlock()
		return e, nil
	}
	importFn := func() (*lrpc.Binding, error) {
		b, err := sys.Import("Svc")
		if err != nil {
			return nil, err
		}
		mu.Lock()
		bindings = append(bindings, b)
		mu.Unlock()
		return b, nil
	}

	first, err := export()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := lrpc.Supervise(importFn, lrpc.SupervisorOpts{
		RebindAttempts:       30,
		RebindBackoffInitial: 100 * time.Microsecond,
		RebindBackoffMax:     time.Millisecond,
		ProbeInterval:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	const workers = 4
	const callsPerWorker = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			args := []byte(fmt.Sprintf("worker-%d", w))
			for i := 0; i < callsPerWorker; i++ {
				res, err := sup.Call(0, args)
				switch {
				case err == nil:
					if string(res) != string(args) {
						t.Errorf("seed %d: echo corrupted: %q", seed, res)
						return
					}
				case errors.Is(err, lrpc.ErrCallFailed), errors.Is(err, lrpc.ErrRevoked):
					// The domain died under the call, or the rebind
					// budget lost the race to a terminator.
				default:
					t.Errorf("seed %d: unexpected resolution: %v", seed, err)
					return
				}
			}
		}(w)
	}

	// The terminator: kill the live export, pause a seeded instant, bring
	// up a successor, repeat. The gap is where rebinds spin against
	// ErrNotExported.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := first
		for cycle := 0; cycle < 3; cycle++ {
			time.Sleep(time.Duration(rng.Int63n(int64(500 * time.Microsecond))))
			cur.Terminate()
			time.Sleep(time.Duration(rng.Int63n(int64(300 * time.Microsecond))))
			next, err := export()
			if err != nil {
				t.Errorf("seed %d: re-export: %v", seed, err)
				return
			}
			cur = next
		}
	}()
	wg.Wait()

	// Quiesce: every activation returned, every A-stack home.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		var active int64
		for _, e := range exports {
			active += e.Active()
		}
		outstanding := 0
		for _, b := range bindings {
			outstanding += b.Outstanding()
		}
		mu.Unlock()
		if active == 0 && outstanding == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: leaked state: active=%d outstanding=%d", seed, active, outstanding)
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// TestStressCloseVsRedial races NetClient.Close against in-progress
// redials, over seeded iterations: workers keep calling while a killer
// cuts live connections (forcing the single-flight redial path) and a
// closer tears the client down at a randomized instant — so Close lands
// before, during, and after dial rounds across seeds. Invariants: no
// hang, every call resolves, calls after Close fail with ErrConnClosed,
// and a dial completing after Close never leaks its connection into a
// closed client.
func TestStressCloseVsRedial(t *testing.T) {
	sys := lrpc.NewSystem()
	if _, err := sys.Export(&lrpc.Interface{Name: "Echo", Procs: []lrpc.Proc{{
		Name: "Echo", AStackSize: 64,
		Handler: func(c *lrpc.Call) { copy(c.ResultsBuf(len(c.Args())), c.Args()) },
	}}}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go sys.ServeNetwork(l)

	const iterations = 60
	for it := 0; it < iterations; it++ {
		rng := rand.New(rand.NewSource(int64(it)))

		var mu sync.Mutex
		var conns []net.Conn
		dial := func() (net.Conn, error) {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				return nil, err
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			return conn, nil
		}
		c, err := lrpc.NewReconnectingClient("Echo", lrpc.DialOptions{
			Dial:           dial,
			CallTimeout:    200 * time.Millisecond,
			RedialAttempts: 4,
			BackoffInitial: 200 * time.Microsecond,
			BackoffMax:     time.Millisecond,
			Seed:           int64(it) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		payload := []byte("ping")
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					_, err := c.Call(0, payload)
					switch {
					case err == nil,
						errors.Is(err, lrpc.ErrConnClosed),
						errors.Is(err, lrpc.ErrCallTimeout):
					default:
						t.Errorf("seed %d: unexpected resolution: %v", it, err)
						return
					}
				}
			}()
		}
		// The killer: cut live connections so redials are in flight when
		// Close arrives.
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < 5; k++ {
				time.Sleep(time.Duration(rng.Int63n(int64(300 * time.Microsecond))))
				mu.Lock()
				for _, conn := range conns {
					conn.Close()
				}
				conns = nil
				mu.Unlock()
			}
		}()
		// The closer: tear the client down mid-traffic at a seeded
		// instant.
		closeDelay := time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(closeDelay)
			c.Close()
		}()
		close(start)
		wg.Wait()

		// After Close everything fails fast and Close stays idempotent.
		if _, err := c.Call(0, payload); !errors.Is(err, lrpc.ErrConnClosed) &&
			!errors.Is(err, lrpc.ErrCallTimeout) {
			t.Fatalf("seed %d: call after Close: %v", it, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("seed %d: second Close: %v", it, err)
		}
		if t.Failed() {
			t.Fatalf("failed at seed %d", it)
		}
	}
}
