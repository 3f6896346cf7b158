package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"

	"lrpc"
)

// The server process exports the benchmark interface once per measured
// path, so each path's server counters and histograms are its own.
const (
	expSyncShm = "sync.shm"
	expSyncTCP = "sync.tcp"
	expSyncBrk = "sync.broker"
	expPipeShm = "pipe.shm"
	expPipeTCP = "pipe.tcp"
	expBulkShm = "bulk.shm"
	expBulkTCP = "bulk.tcp"
	expCtl     = "ctl"
)

var benchExports = []string{expSyncShm, expSyncTCP, expSyncBrk, expPipeShm, expPipeTCP, expBulkShm, expBulkTCP}

// Environment of the child roles. The benchmark re-executes its own
// binary with PERFBENCH_ROLE set to run the server or the broker.
const (
	envRole     = "PERFBENCH_ROLE"
	envSock     = "PERFBENCH_SOCK"
	envUpstream = "PERFBENCH_UPSTREAM"
	// envCorrupt makes the server flip one byte of its Nth Sum reply,
	// counted from 1. The benchmark's own tests set it to prove that
	// the reply checker catches a wrong reply.
	envCorrupt = "PERFBENCH_CORRUPT_SUM"
)

// benchTenant is the broker tenant the benchmark calls as.
const benchTenant = "perfbench"

// fileTable is the fileserver state behind Store and Fetch.
type fileTable struct {
	mu    sync.Mutex
	files map[uint64][]byte
}

func benchInterface(name string, corrupt *atomic.Int64) *lrpc.Interface {
	ft := &fileTable{files: map[uint64][]byte{}}
	return &lrpc.Interface{Name: name, Procs: []lrpc.Proc{
		procAdd: {Name: "Add", Handler: func(c *lrpc.Call) {
			a := c.Args()
			if len(a) != 8 {
				panic("Add takes 8 bytes")
			}
			sum := binary.LittleEndian.Uint32(a) + binary.LittleEndian.Uint32(a[4:])
			binary.LittleEndian.PutUint32(c.ResultsBuf(4), sum)
		}},
		procSum: {Name: "Sum", Handler: func(c *lrpc.Call) {
			h := fnv64(c.Args())
			if corrupt.Add(-1) == 0 {
				h ^= 1
			}
			binary.LittleEndian.PutUint64(c.ResultsBuf(8), h)
		}},
		procMix: {Name: "Mix", Handler: func(c *lrpc.Call) {
			a := c.Args()
			if len(a) != 16 {
				panic("Mix takes 16 bytes")
			}
			x := mix(binary.LittleEndian.Uint64(a), binary.LittleEndian.Uint64(a[8:]))
			binary.LittleEndian.PutUint64(c.ResultsBuf(8), x)
		}},
		procStore: {Name: "Store", Handler: func(c *lrpc.Call) {
			id := binary.LittleEndian.Uint64(c.Args())
			n := c.BulkLen()
			ft.mu.Lock()
			buf := ft.files[id]
			if cap(buf) < n {
				buf = make([]byte, n)
			}
			buf = buf[:n]
			ft.files[id] = buf
			ft.mu.Unlock()
			off := 0
			for _, seg := range c.BulkSegments() {
				off += copy(buf[off:], seg)
			}
			binary.LittleEndian.PutUint64(c.ResultsBuf(8), uint64(off))
		}},
		procFetch: {Name: "Fetch", Handler: func(c *lrpc.Call) {
			id := binary.LittleEndian.Uint64(c.Args())
			ft.mu.Lock()
			data := ft.files[id]
			ft.mu.Unlock()
			if len(data) > c.BulkCap() {
				panic("Fetch capacity below the stored size")
			}
			off := 0
			for _, seg := range c.BulkSegments() {
				off += copy(seg, data[off:])
			}
			c.SetBulkLen(off)
			binary.LittleEndian.PutUint64(c.ResultsBuf(8), uint64(off))
		}},
	}}
}

// report is what a child process tells the benchmark about itself.
type report struct {
	UserUs    float64             `json:"user_us"`
	SysUs     float64             `json:"sys_us"`
	Ctxsw     int64               `json:"ctxsw"`
	MaxRSSKiB int64               `json:"maxrss_kib"`
	Shm       lrpc.ShmServerStats `json:"shm"`
	Export    lrpc.ExportSnapshot `json:"export"`
}

// Control procedures, served on a separate export so they never touch
// a measured export's counters.
const (
	ctlReport        = iota // args: an export name to add its snapshot, or none
	ctlEnableMetrics        // args: export name
)

func ctlInterface(shm *lrpc.ShmServer, exports map[string]*lrpc.Export) *lrpc.Interface {
	return &lrpc.Interface{Name: expCtl, Procs: []lrpc.Proc{
		ctlReport: {Name: "Report", Handler: func(c *lrpc.Call) {
			rep := report{}
			rep.UserUs, rep.SysUs, rep.Ctxsw, rep.MaxRSSKiB = selfUsage()
			if shm != nil {
				rep.Shm = shm.Stats()
			}
			if e := exports[string(c.Args())]; e != nil {
				rep.Export = e.MetricsSnapshot()
			}
			b, err := json.Marshal(rep)
			if err != nil {
				panic(err)
			}
			c.SetResults(b)
		}},
		ctlEnableMetrics: {Name: "EnableMetrics", Handler: func(c *lrpc.Call) {
			// Enabling on the system would reach every export; the
			// benchmark turns recording on one path at a time.
			if e := exports[string(c.Args())]; e != nil {
				e.EnableMetrics()
			}
		}},
	}}
}

// exportAll exports ifaces and returns their handles by name.
func exportAll(sys *lrpc.System, ifaces ...*lrpc.Interface) (map[string]*lrpc.Export, error) {
	exports := map[string]*lrpc.Export{}
	for _, iface := range ifaces {
		e, err := sys.Export(iface)
		if err != nil {
			return nil, err
		}
		exports[iface.Name] = e
	}
	return exports, nil
}

// selfUsage reads this process's CPU time, context switches and peak
// resident set.
func selfUsage() (userUs, sysUs float64, ctxsw, maxRSSKiB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0, 0
	}
	return float64(ru.Utime.Nano()) / 1e3, float64(ru.Stime.Nano()) / 1e3,
		ru.Nvcsw + ru.Nivcsw, ru.Maxrss
}

// serveTCP serves every export of sys over TCP on loopback.
func serveTCP(sys *lrpc.System) (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go sys.ServeNetwork(l)
	return l, nil
}

// serverMain is the server process: every benchmark export served over
// shm on a Unix socket and over TCP, both with zero-value options. It
// runs until its standard input closes.
func serverMain() error {
	sys := lrpc.NewSystem()
	var corrupt atomic.Int64
	corrupt.Store(-1)
	if v := os.Getenv(envCorrupt); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("%s: %w", envCorrupt, err)
		}
		corrupt.Store(n)
	}
	var ifaces []*lrpc.Interface
	for _, name := range benchExports {
		ifaces = append(ifaces, benchInterface(name, &corrupt))
	}
	exports, err := exportAll(sys, ifaces...)
	if err != nil {
		return err
	}
	shm := lrpc.NewShmServer(sys, lrpc.ShmServeOptions{})
	if _, err := exportAll(sys, ctlInterface(shm, exports)); err != nil {
		return err
	}
	sock := os.Getenv(envSock)
	ul, err := lrpc.ListenShm(sock)
	if err != nil {
		return err
	}
	defer os.Remove(sock)
	go shm.Serve(ul)
	defer shm.Close()
	tl, err := serveTCP(sys)
	if err != nil {
		return err
	}
	defer tl.Close()
	fmt.Printf("READY %s\n", tl.Addr())
	_, _ = io.Copy(io.Discard, os.Stdin)
	return nil
}

// brokerPolicy admits the benchmark tenant with a token bucket and a
// bulkhead far above anything one closed-loop caller can offer, so the
// gate runs on every call and never sheds.
func brokerPolicy() *lrpc.BrokerPolicy {
	return &lrpc.BrokerPolicy{Version: 1, Tenants: map[string]lrpc.TenantPolicy{
		benchTenant: {RatePerSec: 1e9, Burst: 1 << 30, MaxConcurrent: 1024, MaxQueue: 1024},
	}}
}

// brokerMain is the broker process, deployed as cmd/lrpcbroker deploys
// it: a NetClient upstream to the server's TCP export. It also serves
// the control export so the benchmark can read its CPU time.
func brokerMain() error {
	nc, err := lrpc.DialInterface("tcp", os.Getenv(envUpstream), expSyncBrk)
	if err != nil {
		return fmt.Errorf("dial upstream: %w", err)
	}
	bk := lrpc.NewBroker(lrpc.BrokerOptions{})
	bk.SetUpstream(expSyncBrk, nc)
	if err := bk.SetPolicy(brokerPolicy()); err != nil {
		return err
	}
	addr, err := bk.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer bk.Close()
	sys := lrpc.NewSystem()
	if _, err := exportAll(sys, ctlInterface(nil, nil)); err != nil {
		return err
	}
	tl, err := serveTCP(sys)
	if err != nil {
		return err
	}
	defer tl.Close()
	fmt.Printf("READY %s %s\n", addr, tl.Addr())
	_, _ = io.Copy(io.Discard, os.Stdin)
	return nil
}
