package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lrpc"
)

// Input pool sizes; calls cycle through the pools. smallPool is a power
// of two so the cursor wraps with a mask.
const (
	smallPool = 1 << 13
	chainPool = 256
	batchLen  = 64
)

// bench is one run's state: the system under test, the generated
// inputs, and every metric measured so far.
type bench struct {
	cl       *cluster
	tr       *tracer // nil when untraced
	small    []smallCall
	chains   []chainCall
	bulk     *bulkSource
	slotSize int

	next, nextChain int // input cursors

	attempted, failed int64
	noAStacks         int64
	m                 map[string]float64
	// Untraced p50 round trip by path, kept for broker.relay_us.
	rttP50 map[string]float64
}

// check counts one operation and whether it succeeded.
func (b *bench) check(ok bool, what string, err error) {
	b.attempted++
	if ok {
		return
	}
	b.failed++
	if b.failed <= 5 {
		if err == nil {
			err = errors.New("wrong reply")
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// crossCheck compares what the client issued with what a server counted:
// each call lost or duplicated on the way counts as a failure.
func (b *bench) crossCheck(what string, client, server uint64) {
	if client == server {
		return
	}
	diff := int64(client) - int64(server)
	if diff < 0 {
		diff = -diff
	}
	b.failed += diff
	fmt.Fprintf(os.Stderr, "perfbench: %s: client issued %d, server counted %d\n", what, client, server)
}

func (b *bench) smallCall() *smallCall {
	c := &b.small[b.next&(smallPool-1)]
	b.next++
	return c
}

func (b *bench) chainCall() *chainCall {
	c := &b.chains[b.nextChain%chainPool]
	b.nextChain++
	return c
}

// exportDelta reads the reported export's counters from two reports.
func exportDelta(r0, r1 report) (calls, chains, stages uint64) {
	a, z := r0.Export, r1.Export
	return z.Calls - a.Calls, z.Chains - a.Chains, z.ChainStages - a.ChainStages
}

// meter measures one path. A run measures every path in slices, taking
// turns, so each metric samples the whole run rather than one stretch
// of it. Traced runs trace the second half of the slices.
type meter interface {
	slice(d time.Duration, tr *tracer) error
	done() error
}

// sliceReports is the state of every process at one instant, taken on
// either side of a slice.
type sliceReports struct {
	cli      usage
	srv, brk report
	tenant   lrpc.TenantSnapshot
}

// mark reads the client's usage and the server's report with export's
// snapshot, and with broker set the broker's report and tenant counters
// too.
func (b *bench) mark(export string, broker bool) (sliceReports, error) {
	var s sliceReports
	var err error
	if s.srv, err = b.cl.report(false, export); err != nil {
		return s, err
	}
	if broker {
		if s.brk, err = b.cl.report(true, ""); err != nil {
			return s, err
		}
		if s.tenant, err = b.tenantStats(); err != nil {
			return s, err
		}
	}
	s.cli = clientUsage()
	return s, nil
}

// --- in-process ---

// inprocBlock is how many calls a caller times together.
const inprocBlock = 64

// inprocMeter measures Binding calls in this process: nproc callers
// sharing one binding. Each slice's throughput is nproc blocks of calls
// per median block time, so a block the host interrupted does not count;
// the run reports the interquartile mean over slices. Traced slices add
// a one-caller run (lrpc.scaling, lrpc.ns_per_call); heap allocations per
// call are counted once at the end.
type inprocMeter struct {
	b             *bench
	bind          *lrpc.Binding
	rates, single []float64 // calls/s per slice
}

func (b *bench) newInproc() (meter, error) {
	sys := lrpc.NewSystem()
	var never atomic.Int64
	never.Store(-1)
	if _, err := sys.Export(benchInterface("inproc", &never)); err != nil {
		return nil, err
	}
	bind, err := sys.Import("inproc")
	if err != nil {
		return nil, err
	}
	b.inprocRate(bind, runtime.NumCPU(), warmUp, nil)
	return &inprocMeter{b: b, bind: bind}, nil
}

func (m *inprocMeter) slice(d time.Duration, tr *tracer) error {
	nproc := runtime.NumCPU()
	if tr == nil {
		m.rates = append(m.rates, m.b.inprocRate(m.bind, nproc, d, nil))
		return nil
	}
	m.rates = append(m.rates, m.b.inprocRate(m.bind, nproc, d/2, nil))
	m.single = append(m.single, m.b.inprocRate(m.bind, 1, d/2, tr))
	return nil
}

func (m *inprocMeter) done() error {
	b := m.b
	b.m["inproc_calls_per_s"] = iqm(m.rates)
	if b.tr == nil {
		return nil
	}
	b.m["lrpc.scaling"] = iqm(m.rates) / iqm(m.single)
	b.m["lrpc.ns_per_call"] = 1e9 / iqm(m.single)
	// MemStats counts every goroutine's allocations, and the idle
	// sessions' goroutines allocate now and then; the fewest seen in ten
	// batches is the call path's own count.
	const n = 10000
	dst := make([]byte, 0, 16)
	fewest := math.Inf(1)
	for k := 0; k < 10; k++ {
		fewest = math.Min(fewest, allocsDuring(n, func() {
			for i := 0; i < n; i++ {
				c := b.smallCall()
				out, err := m.bind.CallAppend(c.proc, c.args, dst[:0])
				b.check(err == nil && bytes.Equal(out, c.want), "inproc call", err)
			}
		}))
	}
	b.m["lrpc.allocs_per_call"] = fewest
	return nil
}

// allocsDuring runs f and returns the heap allocations it made, per op.
func allocsDuring(ops int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// inprocRate runs callers closed-loop callers for d, timing blocks of
// inprocBlock calls, and returns callers*inprocBlock calls per median
// block time. With one caller, tr gets a span per block.
func (b *bench) inprocRate(bind *lrpc.Binding, callers int, d time.Duration, tr *tracer) float64 {
	var stop atomic.Bool
	blocks := make([][]int64, callers)
	bad := make([]int64, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int, i int) {
			defer wg.Done()
			dst := make([]byte, 0, 16)
			parent := tr.begin("inproc blocks", -1, 0)
			defer tr.end(parent)
			for !stop.Load() {
				t0 := time.Now()
				for k := 0; k < inprocBlock; k++ {
					c := &b.small[i&(smallPool-1)]
					i++
					out, err := bind.CallAppend(c.proc, c.args, dst[:0])
					if err != nil || !bytes.Equal(out, c.want) {
						bad[g]++
					}
				}
				t1 := time.Now()
				blocks[g] = append(blocks[g], int64(t1.Sub(t0)))
				tr.span("Binding.CallAppend x64", parent, tr.req(), t0, t1)
			}
		}(g, b.next+g*smallPool/callers)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	var all []int64
	for g := range blocks {
		all = append(all, blocks[g]...)
		b.attempted += int64(len(blocks[g]) * inprocBlock)
		if bad[g] > 0 {
			b.failed += bad[g]
			fmt.Fprintf(os.Stderr, "perfbench: inproc: %d wrong replies\n", bad[g])
		}
	}
	return float64(callers*inprocBlock) / (durQuantileUs(all, 0.5) / 1e6)
}

// --- synchronous remote paths ---

// syncMeter measures one remote path with one closed-loop caller.
type syncMeter struct {
	b             *bench
	name, export  string
	layer, span   string // metric prefix of the path's layer; span name
	call          func(proc int, args, dst []byte) ([]byte, error)
	broker        bool
	spinPark      func() (spin, park uint64) // shm only
	plain, traced []int64                    // round trips, ns
	sliceP50      []float64                  // each untraced slice's median round trip, us
	spills        int
	cli, srv, brk usage
	spin, park    uint64
	last          report
}

func (b *bench) newShmSync() (meter, error) {
	c := b.cl.shm[expSyncShm]
	return b.warmSync(&syncMeter{b: b, name: "shm", export: expSyncShm, layer: "shm", span: "ShmClient.CallAppend",
		call:     c.CallAppend,
		spinPark: func() (uint64, uint64) { s := c.Stats(); return s.SpinReplies, s.ParkReplies }})
}

func (b *bench) newTCPSync() (meter, error) {
	c := b.cl.tcp[expSyncTCP]
	return b.warmSync(&syncMeter{b: b, name: "tcp", export: expSyncTCP, layer: "net", span: "NetClient.Call",
		call: func(proc int, args, _ []byte) ([]byte, error) { return c.Call(proc, args) }})
}

func (b *bench) newBrokerSync() (meter, error) {
	s := b.cl.brk
	return b.warmSync(&syncMeter{b: b, name: "broker", export: expSyncBrk, layer: "broker", span: "BrokerSession.Call",
		broker: true,
		call:   func(proc int, args, _ []byte) ([]byte, error) { return s.Call(proc, args) }})
}

func (b *bench) warmSync(m *syncMeter) (meter, error) {
	m.loop(warmUp, nil)
	return m, nil
}

// warmUp is each path's untimed first stretch.
const warmUp = 100 * time.Millisecond

// loop calls the path closed-loop for d, checking every reply, and
// returns each round trip in ns and how many calls carried arguments
// larger than a shm slot.
func (m *syncMeter) loop(d time.Duration, tr *tracer) (rtt []int64, spills int) {
	b := m.b
	rtt = make([]int64, 0, 1<<12)
	dst := make([]byte, 0, 64)
	parent := tr.begin(m.name+" sync", -1, 0)
	defer tr.end(parent)
	deadline := time.Now().Add(d)
	for {
		c := b.smallCall()
		t0 := time.Now()
		out, err := m.call(c.proc, c.args, dst[:0])
		t1 := time.Now()
		rtt = append(rtt, int64(t1.Sub(t0)))
		tr.span(m.span, parent, tr.req(), t0, t1)
		b.check(err == nil && bytes.Equal(out, c.want), m.name+" call", err)
		if len(c.args) > b.slotSize {
			spills++
		}
		if t1.After(deadline) {
			return rtt, spills
		}
	}
}

func (m *syncMeter) slice(d time.Duration, tr *tracer) error {
	b := m.b
	var spin0, park0 uint64
	if m.spinPark != nil {
		spin0, park0 = m.spinPark()
	}
	m0, err := b.mark(m.export, m.broker)
	if err != nil {
		return err
	}
	rtt, spills := m.loop(d, tr)
	m.spills += spills
	m1, err := b.mark(m.export, m.broker)
	if err != nil {
		return err
	}
	if tr == nil {
		m.plain = append(m.plain, rtt...)
		m.sliceP50 = append(m.sliceP50, durQuantileUs(rtt, 0.5))
	} else {
		m.traced = append(m.traced, rtt...)
	}
	served, _, _ := exportDelta(m0.srv, m1.srv)
	b.crossCheck(m.name+" calls", uint64(len(rtt)), served)
	if m.broker {
		b.crossCheck("broker tenant calls", uint64(len(rtt)), m1.tenant.Calls-m0.tenant.Calls)
		m.brk = m.brk.add(m1.brk.usage().sub(m0.brk.usage()))
	}
	m.cli = m.cli.add(m1.cli.sub(m0.cli))
	m.srv = m.srv.add(m1.srv.usage().sub(m0.srv.usage()))
	if m.spinPark != nil {
		spin1, park1 := m.spinPark()
		m.spin += spin1 - spin0
		m.park += park1 - park0
	}
	m.last = m1.srv
	return nil
}

func (m *syncMeter) done() error {
	b := m.b
	calls := int64(len(m.plain) + len(m.traced))
	p50 := iqm(m.sliceP50)
	b.m[m.name+"_rtt_p50_us"] = p50
	// p99 does not repeat run to run on a shared host, so it is a
	// per-layer number rather than an end-to-end one.
	b.m[m.layer+".rtt_p99_us"] = durQuantileUs(m.plain, 0.99)
	b.rttP50[m.name] = p50
	if b.tr == nil {
		return nil
	}
	b.m["metrics."+m.name+"_trace_overhead_pct"] = 100 * (durQuantileUs(m.traced, 0.5)/durQuantileUs(m.plain, 0.5) - 1)
	snap := m.last.Export
	switch m.name {
	case "shm":
		b.m["shm.client_user_us_per_call"] = per(m.cli.userUs, calls)
		b.m["shm.client_sys_us_per_call"] = per(m.cli.sysUs, calls)
		b.m["shm.server_user_us_per_call"] = per(m.srv.userUs, calls)
		b.m["shm.server_sys_us_per_call"] = per(m.srv.sysUs, calls)
		b.m["shm.ctxsw_per_call"] = per(float64(m.cli.ctxsw+m.srv.ctxsw), calls)
		b.m["shm.spin_reply_ratio"] = per(float64(m.spin), int64(m.spin+m.park))
		b.m["shm.spill_share"] = per(float64(m.spills), calls)
		m.serverLayers(snap)
	case "tcp":
		b.m["net.client_cpu_us_per_call"] = per(m.cli.cpuUs(), calls)
		b.m["net.server_cpu_us_per_call"] = per(m.srv.cpuUs(), calls)
		m.serverLayers(snap)
	case "broker":
		b.m["broker.cpu_us_per_call"] = per(m.brk.cpuUs(), calls)
	}
	return nil
}

// serverLayers derives the layers the server recorded during the traced
// slices: the dispatch, handler and copy medians, and the part of the
// traced round trip spent outside the server's dispatch.
func (m *syncMeter) serverLayers(snap lrpc.ExportSnapshot) {
	us := func(h lrpc.HistogramSnapshot) float64 { return float64(h.Percentile(50)) / 1e3 }
	m.b.m["metrics."+m.name+"_dispatch_p50_us"] = us(snap.Dispatch)
	m.b.m["metrics."+m.name+"_handler_p50_us"] = us(snap.Handler)
	m.b.m["metrics."+m.name+"_copy_p50_us"] = us(snap.Copy)
	m.b.m[m.layer+".transport_residual_us"] = durQuantileUs(m.traced, 0.5) - us(snap.Dispatch)
}

func (b *bench) tenantStats() (lrpc.TenantSnapshot, error) {
	_, tenants, err := lrpc.BrokerStats(b.cl.brokerAddr, 5*time.Second)
	if err != nil {
		return lrpc.TenantSnapshot{}, fmt.Errorf("broker stats: %w", err)
	}
	for _, t := range tenants {
		if t.Tenant == benchTenant {
			return t, nil
		}
	}
	return lrpc.TenantSnapshot{}, fmt.Errorf("broker stats: tenant %q missing", benchTenant)
}

// --- pipelined: batches and chains ---

// pipeMeter measures batches of 64 small calls and depth-4 chains over
// one transport, taking turns within every slice.
type pipeMeter struct {
	b            *bench
	name, export string
	newBatch     func() *lrpc.Batch
	callChain    func(*lrpc.Chain) ([]byte, error)
	batchStats   func() (batches, batched uint64)

	batch, chain, flush, wait []int64
	// Each slice's median batch and chain time, us.
	sliceBatch, sliceChain []float64
	stageNs                int64 // traced slices only
	stagedTraced           int64
	batches, batched       uint64
	chains, stages         uint64
	chainCPUUs             float64 // traced slices only
	chainsTraced           int64   // traced slices only
}

func (b *bench) newShmPipe() (meter, error) {
	c := b.cl.shm[expPipeShm]
	return b.warmPipe(&pipeMeter{b: b, name: "shm", export: expPipeShm, newBatch: c.NewBatch, callChain: c.CallChain,
		batchStats: func() (uint64, uint64) { s := c.Stats(); return s.Batches, s.BatchedCalls }})
}

func (b *bench) newTCPPipe() (meter, error) {
	c := b.cl.tcp[expPipeTCP]
	return b.warmPipe(&pipeMeter{b: b, name: "tcp", export: expPipeTCP, newBatch: c.NewBatch, callChain: c.CallChain,
		batchStats: func() (uint64, uint64) { s := c.Stats(); return s.Batches, s.BatchedCalls }})
}

func (b *bench) warmPipe(m *pipeMeter) (meter, error) {
	for deadline := time.Now().Add(warmUp); time.Now().Before(deadline); {
		m.runBatch(nil, false)
		m.runChain(nil, false)
	}
	return m, nil
}

// runBatch submits one batch of small calls, checks every result and
// returns how many calls it staged.
func (m *pipeMeter) runBatch(tr *tracer, keep bool) int64 {
	b := m.b
	req := tr.req()
	staged := make([]*smallCall, 0, batchLen)
	var stageNs int64
	t0 := time.Now()
	bt := m.newBatch()
	for j := 0; j < batchLen; j++ {
		c := b.smallCall()
		ts := time.Now()
		_, err := bt.Call(c.proc, c.args)
		stageNs += int64(time.Since(ts))
		if err != nil {
			b.check(false, m.name+" batch call", err)
			continue
		}
		staged = append(staged, c)
	}
	tf := time.Now()
	ferr := bt.Flush()
	tw := time.Now()
	_ = bt.Wait() // each entry's own error is checked below
	t1 := time.Now()
	if keep {
		m.batch = append(m.batch, int64(t1.Sub(t0)))
	}
	if tr != nil {
		m.stageNs += stageNs
		m.stagedTraced += int64(len(staged))
		m.flush = append(m.flush, int64(tw.Sub(tf)))
		m.wait = append(m.wait, int64(t1.Sub(tw)))
		parent := tr.span("Batch", -1, req, t0, t1)
		tr.span("Batch.Call x64", parent, req, t0, tf)
		tr.span("Batch.Flush", parent, req, tf, tw)
		tr.span("Batch.Wait", parent, req, tw, t1)
	}
	if ferr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s flush: %v\n", m.name, ferr)
	}
	for j, c := range staged {
		out, err := bt.Result(j)
		b.check(ferr == nil && err == nil && bytes.Equal(out, c.want), m.name+" batch call", err)
	}
	return int64(len(staged))
}

// runChain submits one depth-4 chain and checks its result.
func (m *pipeMeter) runChain(tr *tracer, keep bool) {
	c := m.b.chainCall()
	t0 := time.Now()
	out, err := m.callChain(c.ch)
	t1 := time.Now()
	tr.span("CallChain", -1, tr.req(), t0, t1)
	if keep {
		m.chain = append(m.chain, int64(t1.Sub(t0)))
	}
	m.b.check(err == nil && len(out) == 8 && binary.LittleEndian.Uint64(out) == c.want, m.name+" chain", err)
}

// batchShare is the part of a pipelined slice that runs batches; chains
// get the rest. A batch's time swings with how the client's and the
// server's wake-ups interleave, a chain's barely, so batches need the
// larger sample.
const batchShare = 0.75

// slice runs batches back to back for batchShare of d, then chains for
// the rest. Alternating within an iteration would time every chain
// right behind a batch, whose wake-ups and garbage it would inherit.
func (m *pipeMeter) slice(d time.Duration, tr *tracer) error {
	b := m.b
	m0, err := b.mark(m.export, false)
	if err != nil {
		return err
	}
	batches0, batched0 := m.batchStats()
	var calls, chains int64
	nb, nc := len(m.batch), len(m.chain)
	for deadline := time.Now().Add(time.Duration(float64(d) * batchShare)); ; {
		calls += m.runBatch(tr, true)
		if !time.Now().Before(deadline) {
			break
		}
	}
	batches1, batched1 := m.batchStats()
	u0 := clientUsage()
	for deadline := time.Now().Add(time.Duration(float64(d) * (1 - batchShare))); ; {
		m.runChain(tr, true)
		chains++
		if !time.Now().Before(deadline) {
			break
		}
	}
	if tr != nil {
		m.chainCPUUs += clientUsage().sub(u0).cpuUs()
		m.chainsTraced += chains
	}
	m.sliceBatch = append(m.sliceBatch, durQuantileUs(m.batch[nb:], 0.5))
	m.sliceChain = append(m.sliceChain, durQuantileUs(m.chain[nc:], 0.5))
	m1, err := b.mark(m.export, false)
	if err != nil {
		return err
	}
	served, chained, stages := exportDelta(m0.srv, m1.srv)
	b.crossCheck(m.name+" pipelined calls", uint64(calls+chains*chainDepth), served)
	b.crossCheck(m.name+" chains", uint64(chains), chained)
	b.crossCheck(m.name+" chain stages", uint64(chains*chainDepth), stages)
	m.chains += chained
	m.stages += stages
	m.batches += batches1 - batches0
	m.batched += batched1 - batched0
	return nil
}

func (m *pipeMeter) done() error {
	b := m.b
	b.m[m.name+"_batch_calls_per_s"] = batchLen / (iqm(m.sliceBatch) / 1e6)
	b.m[m.name+"_chain_p50_us"] = iqm(m.sliceChain)
	if b.tr == nil {
		return nil
	}
	pre := "async." + m.name
	b.m[pre+"_stage_ns_per_call"] = per(float64(m.stageNs), m.stagedTraced)
	b.m[pre+"_flush_us"] = durQuantileUs(m.flush, 0.5)
	b.m[pre+"_wait_us"] = durQuantileUs(m.wait, 0.5)
	b.m[pre+"_calls_per_flush"] = per(float64(m.batched), int64(m.batches))
	b.m["chain."+m.name+"_client_cpu_us_per_chain"] = per(m.chainCPUUs, m.chainsTraced)
	b.m["chain."+m.name+"_server_stages_per_chain"] = per(float64(m.stages), int64(m.chains))
	const allocBatches = 16
	b.m[pre+"_allocs_per_call"] = allocsDuring(allocBatches*batchLen, func() {
		for i := 0; i < allocBatches; i++ {
			m.runBatch(nil, false)
		}
	})
	return nil
}

// --- bulk files ---

// bulkMeter stores rounds of 64 KiB-4 MiB files over one transport and
// fetches each back. Each direction's MiB/s is that of a round in which
// every file takes the median time of its octave: a median per size
// class ignores the transfers that host interference stretched, which a
// total over all transfers would not.
type bulkMeter struct {
	b            *bench
	name, export string
	callBulk     func(proc int, args []byte, h *lrpc.BulkHandle) ([]byte, error)
	out          []byte
	ids          [bulkOctaves][]byte

	storeNs, fetchNs [bulkOctaves][]int64 // transfer times by octave
	bytes, files     [bulkOctaves]int64
	// Traced slices only: CPU by direction, client and server, and the
	// MiB they moved.
	storeCli, fetchCli, storeSrv, fetchSrv, mib float64
}

func (b *bench) newShmBulk() (meter, error) {
	return b.warmBulk(&bulkMeter{b: b, name: "shm", export: expBulkShm, callBulk: b.cl.shm[expBulkShm].CallBulk})
}

func (b *bench) newTCPBulk() (meter, error) {
	return b.warmBulk(&bulkMeter{b: b, name: "tcp", export: expBulkTCP, callBulk: b.cl.tcp[expBulkTCP].CallBulk})
}

func (b *bench) warmBulk(m *bulkMeter) (meter, error) {
	m.out = make([]byte, bulkMaxSize)
	for i := range m.ids {
		m.ids[i] = binary.LittleEndian.AppendUint64(nil, uint64(i))
	}
	return m, m.round(nil, false)
}

// call retries a call the shm bulk region could not hold yet: such a
// call is rejected before it runs (ErrNoAStacks).
func (m *bulkMeter) call(proc int, args []byte, h *lrpc.BulkHandle) ([]byte, error) {
	for tries := 0; ; tries++ {
		out, err := m.callBulk(proc, args, h)
		if !errors.Is(err, lrpc.ErrNoAStacks) || tries == 1000 {
			return out, err
		}
		m.b.noAStacks++
		time.Sleep(100 * time.Microsecond)
	}
}

// round stores each file of one round, then fetches each back and
// compares it with what was stored.
func (m *bulkMeter) round(tr *tracer, keep bool) error {
	b := m.b
	r := b.bulk.round()
	req := tr.req()
	total := 0
	for _, f := range r.files {
		total += len(f)
	}
	var marks [3]sliceReports
	mark := func(k int) error {
		if tr == nil {
			return nil
		}
		var err error
		marks[k], err = b.mark(m.export, false)
		return err
	}
	if err := mark(0); err != nil {
		return err
	}
	for _, oct := range r.order {
		data := r.files[oct]
		t0 := time.Now()
		res, err := m.call(procStore, m.ids[oct], lrpc.NewBulkIn(data))
		t1 := time.Now()
		tr.span("CallBulk Store", -1, req, t0, t1)
		b.check(err == nil && len(res) == 8 && binary.LittleEndian.Uint64(res) == uint64(len(data)), m.name+" store", err)
		if keep {
			m.storeNs[oct] = append(m.storeNs[oct], int64(t1.Sub(t0)))
			m.bytes[oct] += int64(len(data))
			m.files[oct]++
		}
	}
	if err := mark(1); err != nil {
		return err
	}
	for _, oct := range r.order {
		data := r.files[oct]
		h := lrpc.NewBulkOut(m.out[:len(data)])
		t0 := time.Now()
		res, err := m.call(procFetch, m.ids[oct], h)
		t1 := time.Now()
		tr.span("CallBulk Fetch", -1, req, t0, t1)
		ok := err == nil && len(res) == 8 && h.Transferred() == int64(len(data)) &&
			bytes.Equal(m.out[:len(data)], data)
		b.check(ok, m.name+" fetch", err)
		if keep {
			m.fetchNs[oct] = append(m.fetchNs[oct], int64(t1.Sub(t0)))
		}
	}
	if err := mark(2); err != nil {
		return err
	}
	if tr != nil {
		m.storeCli += marks[1].cli.sub(marks[0].cli).cpuUs()
		m.fetchCli += marks[2].cli.sub(marks[1].cli).cpuUs()
		m.storeSrv += marks[1].srv.usage().sub(marks[0].srv.usage()).cpuUs()
		m.fetchSrv += marks[2].srv.usage().sub(marks[1].srv.usage()).cpuUs()
		m.mib += float64(total) / (1 << 20)
	}
	return nil
}

// rate is the MiB/s of a round of mean-sized files, each taking its
// octave's median time.
func (m *bulkMeter) rate(ns *[bulkOctaves][]int64) float64 {
	var mib, sec float64
	for oct := range ns {
		mib += float64(m.bytes[oct]) / float64(m.files[oct]) / (1 << 20)
		sec += durQuantileUs(ns[oct], 0.5) / 1e6
	}
	return mib / sec
}

func (m *bulkMeter) slice(d time.Duration, tr *tracer) error {
	b := m.b
	m0, err := b.mark(m.export, false)
	if err != nil {
		return err
	}
	var ops int64
	for deadline := time.Now().Add(d); ; {
		if err := m.round(tr, true); err != nil {
			return err
		}
		ops += 2 * bulkOctaves
		if !time.Now().Before(deadline) {
			break
		}
	}
	m1, err := b.mark(m.export, false)
	if err != nil {
		return err
	}
	// Traced rounds add control calls, which land on another export.
	served, _, _ := exportDelta(m0.srv, m1.srv)
	b.crossCheck(m.name+" bulk calls", uint64(ops), served)
	return nil
}

func (m *bulkMeter) done() error {
	b := m.b
	b.m[m.name+"_store_mib_s"] = m.rate(&m.storeNs)
	b.m[m.name+"_fetch_mib_s"] = m.rate(&m.fetchNs)
	if b.tr == nil {
		return nil
	}
	pre := "bulk." + m.name
	b.m[pre+"_store_client_cpu_us_per_mib"] = m.storeCli / m.mib
	b.m[pre+"_fetch_client_cpu_us_per_mib"] = m.fetchCli / m.mib
	b.m[pre+"_store_server_cpu_us_per_mib"] = m.storeSrv / m.mib
	b.m[pre+"_fetch_server_cpu_us_per_mib"] = m.fetchSrv / m.mib
	var err error
	b.m[pre+"_allocs_per_op"] = allocsDuring(2*bulkOctaves, func() { err = m.round(nil, false) })
	return err
}

// finish reads the run-wide counters once every path is done.
func (b *bench) finish() error {
	rep, err := b.cl.report(false, "")
	if err != nil {
		return err
	}
	t, err := b.tenantStats()
	if err != nil {
		return err
	}
	var retries, reconnects uint64
	for _, c := range b.cl.tcp {
		s := c.Stats()
		retries += s.Retries
		reconnects += s.Reconnects
	}
	s := b.cl.brk.Stats().Net
	retries += s.Retries
	reconnects += s.Reconnects
	_, _, _, rss := selfUsage()
	b.m["proc.client_rss_mib"] = float64(rss) / 1024
	b.m["proc.server_rss_mib"] = float64(rep.MaxRSSKiB) / 1024
	b.m["broker.relay_us"] = b.rttP50["broker"] - b.rttP50["tcp"]
	b.m["broker.quota_sheds"] = float64(t.QuotaSheds)
	b.m["broker.errors"] = float64(t.Errors)
	b.m["net.retries"] = float64(retries)
	b.m["net.reconnects"] = float64(reconnects)
	b.m["shm.torn_doorbells"] = float64(rep.Shm.TornDoorbells)
	b.m["bulk.no_astacks_retries"] = float64(b.noAStacks)
	return nil
}
