// Command perfbench is the repository benchmark: it drives the public
// lrpc API through in-process, shared-memory, TCP and brokered paths,
// checks every reply, and prints one JSON result line.
//
//	perfbench --workload sync-small|pipelined|bulk-files --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics and the run writes its
// spans to .bench_build/. NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Workloads. Every workload runs every path, so every run reports every
// metric; the workload decides where the run's time goes (focusShare).
const (
	wlSyncSmall = "sync-small"
	wlPipelined = "pipelined"
	wlBulkFiles = "bulk-files"
)

var workloads = []string{wlSyncSmall, wlPipelined, wlBulkFiles}

// focusShare is the share of a run's measuring time that goes to the
// workload's own phases; the other phases split the rest.
const focusShare = 0.5

// phase is one measured path of a run.
type phase struct {
	name     string
	workload string // the workload that focuses on this phase
	meter    func(b *bench) (meter, error)
}

var phases = []phase{
	{"inproc", wlSyncSmall, (*bench).newInproc},
	{"shm sync", wlSyncSmall, (*bench).newShmSync},
	{"tcp sync", wlSyncSmall, (*bench).newTCPSync},
	{"broker sync", wlSyncSmall, (*bench).newBrokerSync},
	{"shm pipelined", wlPipelined, (*bench).newShmPipe},
	{"tcp pipelined", wlPipelined, (*bench).newTCPPipe},
	{"shm bulk", wlBulkFiles, (*bench).newShmBulk},
	{"tcp bulk", wlBulkFiles, (*bench).newTCPBulk},
}

// slices is how many turns each phase gets in a run; traced runs trace
// the second half. Even.
const slices = 40

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"inproc_calls_per_s", "calls/s"},
	{"shm_rtt_p50_us", "us"},
	{"tcp_rtt_p50_us", "us"},
	{"broker_rtt_p50_us", "us"},
	{"shm_batch_calls_per_s", "calls/s"},
	{"tcp_batch_calls_per_s", "calls/s"},
	{"shm_chain_p50_us", "us"},
	{"tcp_chain_p50_us", "us"},
	{"shm_store_mib_s", "MiB/s"},
	{"shm_fetch_mib_s", "MiB/s"},
	{"tcp_store_mib_s", "MiB/s"},
	{"tcp_fetch_mib_s", "MiB/s"},
}

// perLayer are the single-layer metrics, reported by traced runs.
var perLayer = []metricDef{
	{"lrpc.ns_per_call", "ns"},
	{"lrpc.allocs_per_call", "allocs/call"},
	{"lrpc.scaling", "ratio"},
	{"shm.rtt_p99_us", "us"},
	{"net.rtt_p99_us", "us"},
	{"broker.rtt_p99_us", "us"},
	{"shm.client_user_us_per_call", "us"},
	{"shm.client_sys_us_per_call", "us"},
	{"shm.server_user_us_per_call", "us"},
	{"shm.server_sys_us_per_call", "us"},
	{"shm.ctxsw_per_call", "count"},
	{"shm.spin_reply_ratio", "ratio"},
	{"shm.spill_share", "ratio"},
	{"shm.bind_ms", "ms"},
	{"net.dial_ms", "ms"},
	{"broker.admit_ms", "ms"},
	{"net.client_cpu_us_per_call", "us"},
	{"net.server_cpu_us_per_call", "us"},
	{"async.shm_stage_ns_per_call", "ns"},
	{"async.tcp_stage_ns_per_call", "ns"},
	{"async.shm_flush_us", "us"},
	{"async.tcp_flush_us", "us"},
	{"async.shm_wait_us", "us"},
	{"async.tcp_wait_us", "us"},
	{"async.shm_allocs_per_call", "allocs/call"},
	{"async.tcp_allocs_per_call", "allocs/call"},
	{"async.shm_calls_per_flush", "count"},
	{"async.tcp_calls_per_flush", "count"},
	{"chain.shm_client_cpu_us_per_chain", "us"},
	{"chain.tcp_client_cpu_us_per_chain", "us"},
	{"chain.shm_server_stages_per_chain", "count"},
	{"chain.tcp_server_stages_per_chain", "count"},
	{"bulk.shm_store_client_cpu_us_per_mib", "us/MiB"},
	{"bulk.shm_fetch_client_cpu_us_per_mib", "us/MiB"},
	{"bulk.shm_store_server_cpu_us_per_mib", "us/MiB"},
	{"bulk.shm_fetch_server_cpu_us_per_mib", "us/MiB"},
	{"bulk.tcp_store_client_cpu_us_per_mib", "us/MiB"},
	{"bulk.tcp_fetch_client_cpu_us_per_mib", "us/MiB"},
	{"bulk.tcp_store_server_cpu_us_per_mib", "us/MiB"},
	{"bulk.tcp_fetch_server_cpu_us_per_mib", "us/MiB"},
	{"bulk.shm_allocs_per_op", "allocs/op"},
	{"bulk.tcp_allocs_per_op", "allocs/op"},
	{"bulk.no_astacks_retries", "count"},
	{"proc.client_rss_mib", "MiB"},
	{"proc.server_rss_mib", "MiB"},
	{"broker.cpu_us_per_call", "us"},
	{"broker.relay_us", "us"},
	{"broker.quota_sheds", "count"},
	{"broker.errors", "count"},
	{"net.retries", "count"},
	{"net.reconnects", "count"},
	{"shm.torn_doorbells", "count"},
	{"metrics.shm_dispatch_p50_us", "us"},
	{"metrics.shm_handler_p50_us", "us"},
	{"metrics.shm_copy_p50_us", "us"},
	{"metrics.tcp_dispatch_p50_us", "us"},
	{"metrics.tcp_handler_p50_us", "us"},
	{"metrics.tcp_copy_p50_us", "us"},
	{"shm.transport_residual_us", "us"},
	{"net.transport_residual_us", "us"},
	{"metrics.shm_trace_overhead_pct", "%"},
	{"metrics.tcp_trace_overhead_pct", "%"},
	{"metrics.broker_trace_overhead_pct", "%"},
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host describes the machine and settings a result was measured with.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Options    string `json:"library_options"`
}

func hostInfo(cfg config) host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Options: "zero-value options on every dial and serve",
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		h.Kernel = utsString(u.Release[:])
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func utsString(cs []int8) string {
	b := make([]byte, 0, len(cs))
	for _, c := range cs {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

func main() {
	switch role := os.Getenv(envRole); role {
	case "":
	case "server", "broker":
		run := serverMain
		if role == "broker" {
			run = brokerMain
		}
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", role, err)
			os.Exit(1)
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown %s %q\n", envRole, role)
		os.Exit(2)
	}

	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", wlSyncSmall, "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "seconds of measurement")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics and writes spans")
	flag.Parse()
	cfg.trace = trace != 0

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sigs
		killLive()
		os.Exit(1)
	}()

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	h, _ := json.Marshal(map[string]host{"host": hostInfo(cfg)})
	fmt.Println(string(h))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run.
func run(cfg config) (res result, err error) {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return res, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if cfg.seconds < 1 {
		return res, fmt.Errorf("--seconds must be at least 1")
	}
	b := &bench{m: map[string]float64{}, rttP50: map[string]float64{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	b.small = genSmallCalls(rng, smallPool)
	b.chains = genChains(rng, chainPool)
	b.bulk = newBulkSource(rng)

	var setups, binds, dials, admits []float64
	setup := func() (*cluster, error) {
		cl, s, err := setupCluster(b.tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.total.Seconds())
		for _, d := range s.shmBind {
			binds = append(binds, ms(d))
		}
		for _, d := range s.netDial {
			dials = append(dials, ms(d))
		}
		admits = append(admits, ms(s.brokerAdmit))
		b.slotSize = s.slotSize
		return cl, nil
	}
	if b.cl, err = setup(); err != nil {
		return res, err
	}
	defer b.cl.close()

	meters := make([]meter, len(phases))
	for i, p := range phases {
		if meters[i], err = p.meter(b); err != nil {
			return res, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	measure := time.Duration(cfg.seconds) * time.Second
	for k := 0; k < slices; k++ {
		var tr *tracer
		if k >= slices/2 {
			tr = b.tr
		}
		if tr != nil && k == slices/2 {
			for _, e := range benchExports {
				if err := b.cl.enableMetrics(e); err != nil {
					return res, err
				}
			}
		}
		for i, p := range phases {
			d := time.Duration(float64(measure) * share(p, cfg.workload) / slices)
			if err := meters[i].slice(d, tr); err != nil {
				return res, fmt.Errorf("%s: %w", p.name, err)
			}
		}
		// One more set-up, torn down at once, per round of slices: the
		// set-up samples then span the run like every other metric.
		cl, err := setup()
		if err != nil {
			return res, err
		}
		cl.close()
	}
	b.m["setup_s"] = median(setups)
	b.m["shm.bind_ms"] = median(binds)
	b.m["net.dial_ms"] = median(dials)
	b.m["broker.admit_ms"] = median(admits)
	for i, p := range phases {
		if err := meters[i].done(); err != nil {
			return res, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	if err := b.finish(); err != nil {
		return res, err
	}
	if b.tr != nil {
		path := filepath.Join(buildDir, "trace-"+cfg.workload+".json")
		if err := b.tr.write(path, hostInfo(cfg)); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res = result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := b.m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("metrics not measured or not finite: %s", strings.Join(missing, ", "))
	}
	res.Correct = b.failed == 0
	return res, nil
}

// share is the part of a run's measuring time phase p gets.
func share(p phase, workload string) float64 {
	focus := 0
	for _, q := range phases {
		if q.workload == workload {
			focus++
		}
	}
	if p.workload == workload {
		return focusShare / float64(focus)
	}
	return (1 - focusShare) / float64(len(phases)-focus)
}
