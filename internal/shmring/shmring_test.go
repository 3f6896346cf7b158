package shmring

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// aligned returns a 64-byte-aligned region of length n, standing in for
// the mmap'd (page-aligned) segment the real transport uses.
func aligned(n int) []byte {
	b := make([]byte, n+63)
	off := (64 - int(uintptr(unsafe.Pointer(&b[0])))&63) & 63
	return b[off : off+n : off+n]
}

func TestCapForAndSize(t *testing.T) {
	cases := []struct{ n, c int }{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {1000, 1024}}
	for _, tc := range cases {
		if got := CapFor(tc.n); got != tc.c {
			t.Errorf("CapFor(%d) = %d, want %d", tc.n, got, tc.c)
		}
	}
	if Size(3) != slotsOff+4*slotBytes {
		t.Errorf("Size(3) = %d", Size(3))
	}
}

func TestInitAttachRoundTrip(t *testing.T) {
	region := aligned(Size(8))
	prod, err := Init(region, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The peer's view: same bytes, separately constructed (the two-mapping
	// case collapses to one mapping inside a single test process).
	cons, err := Attach(region, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if !prod.Push(i * 3) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if prod.Push(99) {
		t.Fatal("push succeeded on a full ring")
	}
	for i := uint64(0); i < 8; i++ {
		v, ok := cons.Pop()
		if !ok || v != i*3 {
			t.Fatalf("pop %d = %d,%v; want %d,true", i, v, ok, i*3)
		}
	}
	if _, ok := cons.Pop(); ok {
		t.Fatal("pop succeeded on an empty ring")
	}
}

func TestAttachRejectsMismatch(t *testing.T) {
	region := aligned(Size(8))
	if _, err := Init(region, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(region, 16); err == nil {
		t.Fatal("Attach accepted a capacity that does not match the region")
	}
	if _, err := Attach(region[:16], 8); err == nil {
		t.Fatal("Attach accepted a truncated region")
	}
	if _, err := Init(region[4:], 4); err == nil {
		t.Fatal("Init accepted a misaligned region")
	}
}

// TestConcurrentTransfer drives producers against PopWait consumers and
// checks every value arrives exactly once — under -race this also
// certifies the atomics provide the ordering the protocol claims.
func TestConcurrentTransfer(t *testing.T) {
	const (
		producers = 4
		consumers = 3
		perProd   = 2000
	)
	region := aligned(Size(64))
	r, err := Init(region, 64)
	if err != nil {
		t.Fatal(err)
	}
	var seen [producers * perProd]atomic.Uint32
	var done atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, _, ok := r.PopWait(32, time.Millisecond, done.Load)
				if !ok {
					return
				}
				seen[v].Add(1)
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProd; i++ {
				v := uint64(p*perProd + i)
				for !r.Push(v) {
					procYield()
				}
				r.Bump()
			}
		}(p)
	}
	pwg.Wait()
	// Drain: wait until every value landed, then stop the consumers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for i := range seen {
			total += int(seen[i].Load())
		}
		if total == len(seen) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d values arrived", total, len(seen))
		}
		time.Sleep(time.Millisecond)
	}
	done.Store(true)
	r.WakeAll()
	wg.Wait()
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("value %d delivered %d times", i, n)
		}
	}
}

// TestPopWaitWake pins the park/wake path: a consumer parked past its
// spin budget must be woken promptly by a producer's Bump.
func TestPopWaitWake(t *testing.T) {
	region := aligned(Size(4))
	r, err := Init(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan uint64, 1)
	go func() {
		v, _, _ := r.PopWait(1, 100*time.Millisecond, nil)
		got <- v
	}()
	time.Sleep(20 * time.Millisecond) // let the consumer park
	r.Push(42)
	r.Bump()
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("woke with %d, want 42", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer never woke after Bump")
	}
}

// withPollBudget runs f under the given poll-phase policy: 0 is the
// single-CPU ladder (yield, then park), a positive budget the multi-core
// one. Callers make sure no goroutine of theirs is still waiting when f
// returns.
func withPollBudget(t *testing.T, budget time.Duration, f func()) {
	t.Helper()
	old := pollBudget
	pollBudget = budget
	defer func() { pollBudget = old }()
	f()
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentTransferBothLadders runs the exactly-once transfer
// under both wait policies, so the single-CPU ladder stays covered on a
// multi-core host and the poll phase on a single-CPU one.
func TestConcurrentTransferBothLadders(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget time.Duration
	}{{"yield-park", 0}, {"poll-yield-park", 20 * time.Microsecond}} {
		t.Run(tc.name, func(t *testing.T) {
			withPollBudget(t, tc.budget, func() { TestConcurrentTransfer(t) })
		})
	}
}

// TestSingleCPULadderNeverPolls pins the single-CPU policy: Poll gives
// up without probing, and a waiting consumer never raises the poller
// word, so every doorbell takes the futex wake.
func TestSingleCPULadderNeverPolls(t *testing.T) {
	withPollBudget(t, 0, func() {
		probes := 0
		var p Poller
		if p.Poll(func() bool { probes++; return true }) || probes != 0 {
			t.Fatalf("Poll with a zero budget probed %d times", probes)
		}
		r, err := Init(aligned(Size(4)), 4)
		if err != nil {
			t.Fatal(err)
		}
		type res struct {
			v      uint64
			parked bool
		}
		got := make(chan res, 1)
		go func() {
			v, parked, _ := r.PopWait(4, time.Minute, nil)
			got <- res{v, parked}
		}()
		waitUntil(t, "the consumer to park", func() bool {
			if r.poller.Load() != 0 {
				t.Error("poller word raised under the single-CPU policy")
			}
			return r.waiters.Load() == 1
		})
		r.Push(7)
		r.Bump()
		select {
		case g := <-got:
			if g.v != 7 || !g.parked {
				t.Fatalf("PopWait = %d, parked=%v; want 7 after a park", g.v, g.parked)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked consumer never woke after Bump")
		}
	})
}

// TestPollerTakesDoorbellWithoutWake pins the multi-core fast path: a
// value pushed while a consumer polls is taken by the poll, not after a
// park, and the poller word is raised only for the poll's duration.
func TestPollerTakesDoorbellWithoutWake(t *testing.T) {
	withPollBudget(t, time.Minute, func() {
		r, err := Init(aligned(Size(4)), 4)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan bool, 1)
		go func() {
			v, parked, ok := r.PopWait(0, time.Minute, nil)
			done <- ok && v == 9 && !parked
		}()
		waitUntil(t, "the consumer to poll", func() bool { return r.poller.Load() == 1 })
		r.Push(9)
		r.Bump()
		select {
		case good := <-done:
			if !good {
				t.Fatal("poller returned the wrong value or parked")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("poller never took the doorbell")
		}
		if r.poller.Load() != 0 || r.polling.Load() {
			t.Fatal("poller word or token still held after the poll")
		}
	})
}

// TestPollerHandoffWakesParkedSibling pins the handoff: doorbells rung
// while the poller word is set skip the futex wake, and the consumer
// that takes the first of them wakes the parked sibling for the rest.
// The sibling's park quantum is a minute, so only a futex wake can
// return it within the test's deadline.
func TestPollerHandoffWakesParkedSibling(t *testing.T) {
	withPollBudget(t, time.Minute, func() {
		r, err := Init(aligned(Size(8)), 8)
		if err != nil {
			t.Fatal(err)
		}
		// Hold the poll token so the sibling skips the poll and parks.
		r.polling.Store(true)
		got := make(chan uint64, 1)
		go func() {
			v, _, _ := r.PopWait(0, time.Minute, nil)
			got <- v
		}()
		waitUntil(t, "the sibling to park", func() bool { return r.waiters.Load() == 1 })
		// A poller is present: both doorbells skip the wake.
		r.poller.Store(1)
		for v := uint64(1); v <= 2; v++ {
			r.Push(v)
			r.Bump()
		}
		time.Sleep(20 * time.Millisecond)
		select {
		case v := <-got:
			t.Fatalf("sibling woke with %d while the poller word was set", v)
		default:
		}
		// The poller takes the first doorbell and hands the second over.
		r.poller.Store(0)
		r.polling.Store(false)
		v, parked, ok := r.PopWait(0, time.Minute, nil)
		if !ok || v != 1 || parked {
			t.Fatalf("poller PopWait = %d, parked=%v, ok=%v; want 1 without a park", v, parked, ok)
		}
		select {
		case v := <-got:
			if v != 2 {
				t.Fatalf("sibling woke with %d, want 2", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked sibling was not woken by the handoff")
		}
	})
}

// TestPollerBurstsAllConsumed drives the real protocol with two
// consumers, one polling and one parked: bursts are pushed only while
// the poller word is set, so their doorbells skip the wake, and every
// value must still be consumed exactly once. The poll budget outlasts
// the test, so a poller is always present between bursts; each
// consumer stops at a sentinel value.
func TestPollerBurstsAllConsumed(t *testing.T) {
	withPollBudget(t, time.Minute, func() {
		const (
			consumers = 2
			bursts    = 200
			burst     = 4
			sentinel  = ^uint64(0)
		)
		r, err := Init(aligned(Size(16)), 16)
		if err != nil {
			t.Fatal(err)
		}
		var seen [bursts * burst]atomic.Uint32
		var total atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					v, _, _ := r.PopWait(0, time.Minute, nil)
					if v == sentinel {
						return
					}
					seen[v].Add(1)
					total.Add(1)
				}
			}()
		}
		push := func(v uint64) {
			for !r.Push(v) {
				procYield()
			}
			r.Bump()
		}
		for b := 0; b < bursts; b++ {
			waitUntil(t, "a poller", func() bool { return r.poller.Load() == 1 })
			for i := 0; i < burst; i++ {
				push(uint64(b*burst + i))
			}
			want := int64((b + 1) * burst)
			waitUntil(t, "the burst to drain", func() bool { return total.Load() == want })
		}
		for c := 0; c < consumers; c++ {
			push(sentinel)
		}
		wg.Wait()
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("value %d delivered %d times", i, n)
			}
		}
	})
}

// TestPollerBacksOffAfterMisses pins the hit/miss steering: each miss
// in a row doubles the waits skipped before the next poll (1, 3, 7,
// ... up to maxPollSkip), and a hit resets it.
func TestPollerBacksOffAfterMisses(t *testing.T) {
	withPollBudget(t, 10*time.Microsecond, func() {
		var p Poller
		probes := 0
		miss := func() bool { probes++; return false }
		hit := func() bool { probes++; return true }
		// polled reports whether a Poll call probed at all.
		polled := func(ready func() bool) bool {
			before := probes
			p.Poll(ready)
			return probes != before
		}
		for _, skip := range []int{1, 3, 7, 15, 31, 63, 63} {
			if !polled(miss) {
				t.Fatalf("expected a poll before skipping %d", skip)
			}
			for i := 0; i < skip; i++ {
				if polled(miss) {
					t.Fatalf("polled during skip %d of %d", i+1, skip)
				}
			}
		}
		if !polled(hit) {
			t.Fatal("expected a poll after the skips")
		}
		// The hit reset the backoff: the site polls every time again
		// until the next miss, which skips just one wait.
		if !polled(hit) || !polled(miss) || polled(miss) || !polled(hit) {
			t.Fatal("a hit did not reset the backoff")
		}
	})
}
