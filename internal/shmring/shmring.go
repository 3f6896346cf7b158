// Package shmring is a bounded lock-free MPMC ring laid out over a raw
// byte region, so that two OS processes mapping the same memory segment
// can exchange small values — doorbell slot indices — without sockets,
// locks, or kernel data copies. The protocol is the Vyukov per-slot
// sequence design used by the in-process A-stack pool (astack.go), with
// two differences forced by the cross-process setting: every cursor and
// slot lives at a fixed offset inside the shared region rather than in
// a Go struct, and the park/wake fallback after a bounded spin is a
// shared futex (FUTEX_WAIT/FUTEX_WAKE without the private flag) so a
// waiter in one process can be woken by a producer in another.
//
// Consumers wait on a three-phase ladder (PopWait): a syscall-free poll
// on multi-core hosts, a sched_yield spin, then the futex park. While a
// consumer polls it advertises itself in the ring's poller word and
// producers skip the futex wake, so a doorbell caught by the poll costs
// neither side a system call.
//
// Layout of a ring over a region (offsets in bytes, all fields
// little-endian, region must be 64-byte aligned):
//
//	  0  mask   u64  (capacity-1; written by Init, checked by Attach)
//	 64  enq    u64  (producer cursor, own cache line)
//	128  deq    u64  (consumer cursor, own cache line)
//	192  waiters u32 (count of parked consumers)
//	196  seq    u32  (futex word: bumped by producers after a push)
//	200  poller u32  (nonzero while a consumer is in its poll phase)
//	256  slots  [cap]{seq u64, val u64}
package shmring

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

const (
	offMask    = 0
	offEnq     = 64
	offDeq     = 128
	offWaiters = 192
	offSeq     = 196
	offPoller  = 200
	slotsOff   = 256
	slotBytes  = 16
)

// CapFor rounds n up to the power of two the ring will actually hold.
func CapFor(n int) int {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Size returns the number of region bytes a ring of capacity CapFor(n)
// occupies.
func Size(n int) int { return slotsOff + CapFor(n)*slotBytes }

// slot is the shared-memory image of one ring entry. The two fields are
// accessed only through atomics: val carries no pointers (a pointer
// would be meaningless in the peer's address space).
type slot struct {
	seq atomic.Uint64
	val atomic.Uint64
}

// Ring is one process's view of a shared ring. The struct itself lives
// in private memory; every field it points at lives in the region.
type Ring struct {
	mask    uint64
	enq     *atomic.Uint64
	deq     *atomic.Uint64
	waiters *atomic.Uint32
	seq     *atomic.Uint32
	poller  *atomic.Uint32
	slots   []slot

	// polling is the process-local poll token: at most one consumer of
	// this view polls at a time, so a second consumer parks instead of
	// competing for the remaining processor.
	polling atomic.Bool
	// site steers this view's poll phase by its hits and misses.
	site Poller
}

var (
	errMisaligned = errors.New("shmring: region is not 64-byte aligned")
	errShort      = errors.New("shmring: region too small for capacity")
	errMask       = errors.New("shmring: region mask does not match capacity")
)

func view(region []byte, n int) (*Ring, error) {
	c := CapFor(n)
	if len(region) < Size(c) {
		return nil, errShort
	}
	if uintptr(unsafe.Pointer(&region[0]))&63 != 0 {
		return nil, errMisaligned
	}
	r := &Ring{
		mask:    uint64(c - 1),
		enq:     (*atomic.Uint64)(unsafe.Pointer(&region[offEnq])),
		deq:     (*atomic.Uint64)(unsafe.Pointer(&region[offDeq])),
		waiters: (*atomic.Uint32)(unsafe.Pointer(&region[offWaiters])),
		seq:     (*atomic.Uint32)(unsafe.Pointer(&region[offSeq])),
		poller:  (*atomic.Uint32)(unsafe.Pointer(&region[offPoller])),
		slots:   unsafe.Slice((*slot)(unsafe.Pointer(&region[slotsOff])), c),
	}
	return r, nil
}

// Init formats the region as an empty ring of capacity CapFor(n) and
// returns the initializing side's view. Only one side Inits; the peer
// Attaches.
func Init(region []byte, n int) (*Ring, error) {
	r, err := view(region, n)
	if err != nil {
		return nil, err
	}
	(*atomic.Uint64)(unsafe.Pointer(&region[offMask])).Store(r.mask)
	r.enq.Store(0)
	r.deq.Store(0)
	r.waiters.Store(0)
	r.seq.Store(0)
	r.poller.Store(0)
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
		r.slots[i].val.Store(0)
	}
	return r, nil
}

// Attach builds a view over a ring the peer already initialized,
// verifying the recorded capacity matches the expected one.
func Attach(region []byte, n int) (*Ring, error) {
	r, err := view(region, n)
	if err != nil {
		return nil, err
	}
	if got := (*atomic.Uint64)(unsafe.Pointer(&region[offMask])).Load(); got != r.mask {
		return nil, errMask
	}
	return r, nil
}

// Push enqueues v; it reports false when the ring is full.
func (r *Ring) Push(v uint64) bool {
	pos := r.enq.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				s.val.Store(v)
				s.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case seq < pos:
			return false // full
		default:
			pos = r.enq.Load()
		}
	}
}

// Pop dequeues a value, or reports false when the ring is empty.
func (r *Ring) Pop() (uint64, bool) {
	pos := r.deq.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos+1:
			if r.deq.CompareAndSwap(pos, pos+1) {
				v := s.val.Load()
				s.seq.Store(pos + r.mask + 1)
				return v, true
			}
			pos = r.deq.Load()
		case seq < pos+1:
			return 0, false // empty
		default:
			pos = r.deq.Load()
		}
	}
}

// PopBatch dequeues up to len(dst) values into dst and returns the
// count — the bulk completion reap. Each element is claimed with the
// same CAS protocol as Pop, so concurrent consumers stay safe; the
// batch is best-effort and returns short when the ring runs dry.
func (r *Ring) PopBatch(dst []uint64) int {
	n := 0
	for n < len(dst) {
		v, ok := r.Pop()
		if !ok {
			break
		}
		dst[n] = v
		n++
	}
	return n
}

// Bump publishes "there may be work" after one or more pushes: it
// advances the futex word and wakes one parked consumer, if any. The
// wake is skipped when nobody is parked (the spin-hit fast path) and
// while a consumer is polling: the poller takes the entry, and hands
// any that remain to a parked sibling (handoff), so the doorbell stays
// a single atomic add plus two loads.
func (r *Ring) Bump() {
	r.seq.Add(1)
	if r.waiters.Load() != 0 && r.poller.Load() == 0 {
		futexWake(r.seq, 1)
	}
}

// WakeAll unconditionally wakes every parked consumer — the shutdown
// broadcast.
func (r *Ring) WakeAll() {
	r.seq.Add(1)
	futexWake(r.seq, 1<<30)
}

// pollBudget bounds the poll phase of the wait ladder; zero disables
// it. Polling pays only when the peer runs on another processor at the
// same time: on one CPU every probe delays the very process being
// waited for, and the sched_yield spin hands it the processor instead.
// Tests set it to exercise either ladder on any host.
var pollBudget = defaultPollBudget()

func defaultPollBudget() time.Duration {
	if runtime.NumCPU() > 1 {
		return 20 * time.Microsecond
	}
	return 0
}

// pollProbes is the number of probes between clock reads, and between
// offers of the processor to sibling goroutines, in the poll phase.
const pollProbes = 256

// maxPollSkip caps how many waits a Poller skips after repeated misses.
const maxPollSkip = 63

// A Poller runs the first phase of the wait ladder for one waiting
// site, and steers it the way §3.4 steers idle processors: by counting
// misses. A poll that runs out its budget (a miss) makes the site skip
// the poll on its next wait, and each further miss in a row doubles the
// number of waits skipped, up to maxPollSkip; a hit resets it. A site
// whose waits outlast the budget (bulk transfers, slow handlers) so
// stops burning a processor on polls that cannot succeed and falls
// back to the yield spin, while a site whose waits are short keeps
// polling. The zero value is ready to use and safe for concurrent use;
// concurrent waiters share, and may blur, one site's counts.
type Poller struct {
	skip    atomic.Int32 // waits left to skip
	backoff atomic.Int32 // waits to skip after the next miss
}

// Poll calls ready until it reports true or the poll budget (tens of
// microseconds) runs out, making no system call — only a
// runtime.Gosched every pollProbes probes, so a producer goroutine in
// this process still gets to run. It returns false at once on a
// single-CPU host, where the budget is zero and the caller's
// sched_yield spin does the waiting, and while the site is skipping
// polls after misses.
func (p *Poller) Poll(ready func() bool) bool {
	budget := pollBudget
	if budget <= 0 {
		return false
	}
	if p.skip.Load() > 0 {
		p.skip.Add(-1)
		return false
	}
	start := time.Now()
	for {
		for i := 0; i < pollProbes; i++ {
			if ready() {
				p.backoff.Store(0)
				return true
			}
		}
		if time.Since(start) >= budget {
			break
		}
		runtime.Gosched()
	}
	b := min(2*p.backoff.Load()+1, maxPollSkip)
	p.backoff.Store(b)
	p.skip.Store(b)
	return false
}

// poll is PopWait's poll phase. The consumer holding the token sets
// the poller word for its duration, so producers skip the futex wake,
// and clears it before doing anything else: a producer that read the
// word as set pushed before the clear, so its entry is either taken by
// this poll, passed on by the handoff, or popped by this consumer's
// own spin when the poll runs dry.
func (r *Ring) poll() (uint64, bool) {
	if pollBudget <= 0 || !r.polling.CompareAndSwap(false, true) {
		return 0, false
	}
	r.poller.Store(1)
	var v uint64
	ok := r.site.Poll(func() bool {
		var hit bool
		v, hit = r.Pop()
		return hit
	})
	r.poller.Store(0)
	r.polling.Store(false)
	return v, ok
}

// handoff wakes one parked consumer when a pop leaves entries behind.
// Their doorbells may have skipped the wake because a poller was
// present; without the handoff a burst would wait behind the consumer
// that took its first entry.
func (r *Ring) handoff() {
	if r.waiters.Load() != 0 && r.enq.Load() != r.deq.Load() {
		futexWake(r.seq, 1)
	}
}

// procYield is the second phase of the wait ladder, one probe at a
// time: it surrenders the processor to other goroutines in this process
// (the producer may be a sibling goroutine), then to other OS processes
// (the producer may be the peer domain on the far side of the segment).
// On a single-CPU host this phase is what makes waiting cheap: the
// kernel's round-robin runs the peer at once instead of this side
// burning its quantum and falling back to a futex park, which costs a
// full sleep/wake context switch per direction. On a multi-core host it
// follows the poll phase and catches the slower replies (bulk payloads,
// long handlers) before the park, at a system call per probe.
func procYield() {
	runtime.Gosched()
	OSYield()
}

// PopWait pops a value, waiting on a three-phase ladder until one
// arrives or stop() reports the consumer should give up:
//
//  1. poll (multi-core hosts only): probe the ring with no system call
//     for up to the poll budget, with the poller word set so producers
//     skip the wake. One consumer per ring and process polls at a time;
//     the others go straight to phase 2, and so does every consumer
//     while the ring's Poller skips polls after misses.
//  2. yield: `spin` probes, each followed by a sched_yield.
//  3. park: sleep on the futex in quanta of `wait`, re-running the
//     ladder after each wake.
//
// parked reports whether the value arrived only after a futex park —
// the idle-processor miss. The pop→load-seq→re-pop→wait ordering closes
// the lost-wakeup window: a producer that pushed after our last failed
// Pop necessarily bumped seq, so the futex wait returns immediately
// instead of sleeping through the doorbell. On multi-core hosts a pop
// that leaves entries behind wakes a parked sibling (handoff).
func (r *Ring) PopWait(spin int, wait time.Duration, stop func() bool) (v uint64, parked, ok bool) {
	v, parked, ok = r.popWait(spin, wait, stop)
	if ok && pollBudget > 0 {
		r.handoff()
	}
	return v, parked, ok
}

func (r *Ring) popWait(spin int, wait time.Duration, stop func() bool) (uint64, bool, bool) {
	parked := false
	for {
		if v, ok := r.Pop(); ok {
			return v, parked, true
		}
		if stop != nil && stop() {
			return 0, parked, false
		}
		if v, ok := r.poll(); ok {
			return v, parked, true
		}
		for i := 0; i < spin; i++ {
			if v, ok := r.Pop(); ok {
				return v, parked, true
			}
			procYield()
		}
		g := r.seq.Load()
		if v, ok := r.Pop(); ok {
			return v, parked, true
		}
		if stop != nil && stop() {
			return 0, parked, false
		}
		r.waiters.Add(1)
		futexWait(r.seq, g, wait)
		r.waiters.Add(^uint32(0))
		parked = true
	}
}
