package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"lrpc"
)

// buildDir holds everything a run leaves behind: the Unix sockets of
// live runs and the traced run's span file. It is relative, so a run
// touches only the directory it is started from, and short, so socket
// paths stay under the kernel's limit however deep that directory is.
const buildDir = ".bench_build"

// child is a server or broker process of this run.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// live tracks started children so an interrupted run can still reap
// them (see killLive).
var live struct {
	sync.Mutex
	children map[*child]bool
	dirs     map[string]bool
}

// spawn re-executes this binary in role and waits for its READY line,
// returning the fields after READY.
func spawn(role string, env ...string) (*child, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(append(os.Environ(), envRole+"="+role), env...)
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("start %s: %w", role, err)
	}
	c := &child{cmd: cmd, stdin: stdin}
	live.Lock()
	if live.children == nil {
		live.children = map[*child]bool{}
	}
	live.children[c] = true
	live.Unlock()

	ready := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		ready <- line
	}()
	var line string
	select {
	case line = <-ready:
	case <-time.After(30 * time.Second):
	}
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "READY" {
		c.stop()
		return nil, nil, fmt.Errorf("%s did not start (said %q)", role, line)
	}
	return c, fields[1:], nil
}

// stop closes the child's stdin, which makes it shut down, and waits
// for it; a child that has not exited after a grace period is killed.
func (c *child) stop() error {
	live.Lock()
	if !live.children[c] {
		live.Unlock()
		return nil
	}
	delete(live.children, c)
	live.Unlock()
	c.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
		return errors.New("child did not exit; killed")
	}
}

// killLive kills and reaps every child still running and removes the
// run directories, for an interrupted run.
func killLive() {
	live.Lock()
	defer live.Unlock()
	for c := range live.children {
		_ = c.cmd.Process.Kill()
		_ = c.cmd.Wait()
		delete(live.children, c)
	}
	for d := range live.dirs {
		os.RemoveAll(d)
	}
}

// cluster is one set-up of the system under test: the server and
// broker processes and every client connection the phases call
// through, all with zero-value library options.
type cluster struct {
	dir            string
	server, broker *child
	ctl, brokerCtl *lrpc.NetClient
	brokerAddr     string
	shm            map[string]*lrpc.ShmClient
	tcp            map[string]*lrpc.NetClient
	brk            *lrpc.BrokerSession
}

// setupTimes are the per-step latencies of one set-up.
type setupTimes struct {
	total       time.Duration
	shmBind     []time.Duration
	netDial     []time.Duration
	brokerAdmit time.Duration
	slotSize    int
}

var (
	shmPaths = []string{expSyncShm, expPipeShm, expBulkShm}
	tcpPaths = []string{expSyncTCP, expPipeTCP, expBulkTCP}
)

// setupCluster starts the server and broker, then dials every session.
// On error everything it started is torn down again.
func setupCluster(tr *tracer) (cl *cluster, st setupTimes, err error) {
	start := time.Now()
	root := tr.begin("setup", -1, tr.req())
	defer tr.end(root)
	cl = &cluster{shm: map[string]*lrpc.ShmClient{}, tcp: map[string]*lrpc.NetClient{}}
	defer func() {
		if err != nil {
			cl.close()
			cl = nil
		}
	}()
	if err = os.MkdirAll(buildDir, 0o755); err != nil {
		return cl, st, err
	}
	if cl.dir, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return cl, st, err
	}
	live.Lock()
	if live.dirs == nil {
		live.dirs = map[string]bool{}
	}
	live.dirs[cl.dir] = true
	live.Unlock()
	sock := filepath.Join(cl.dir, "shm.sock")

	t := time.Now()
	var f []string
	if cl.server, f, err = spawn("server", envSock+"="+sock); err != nil {
		return cl, st, err
	}
	tcpAddr := f[0]
	tr.span("spawn server", root, 0, t, time.Now())
	t = time.Now()
	if cl.broker, f, err = spawn("broker", envUpstream+"="+tcpAddr); err != nil {
		return cl, st, err
	}
	if len(f) < 2 {
		return cl, st, fmt.Errorf("broker READY line lacks addresses: %q", f)
	}
	cl.brokerAddr = f[0]
	tr.span("spawn broker", root, 0, t, time.Now())
	if cl.ctl, err = lrpc.DialInterface("tcp", tcpAddr, expCtl); err != nil {
		return cl, st, fmt.Errorf("dial server control: %w", err)
	}
	if cl.brokerCtl, err = lrpc.DialInterface("tcp", f[1], expCtl); err != nil {
		return cl, st, fmt.Errorf("dial broker control: %w", err)
	}
	for _, name := range shmPaths {
		t := time.Now()
		c, err := lrpc.DialShm(sock, name)
		if err != nil {
			return cl, st, fmt.Errorf("DialShm %s: %w", name, err)
		}
		st.shmBind = append(st.shmBind, time.Since(t))
		tr.span("DialShm", root, 0, t, time.Now())
		cl.shm[name] = c
		st.slotSize = c.SlotSize()
	}
	for _, name := range tcpPaths {
		t := time.Now()
		c, err := lrpc.DialInterface("tcp", tcpAddr, name)
		if err != nil {
			return cl, st, fmt.Errorf("DialInterface %s: %w", name, err)
		}
		st.netDial = append(st.netDial, time.Since(t))
		tr.span("DialInterface", root, 0, t, time.Now())
		cl.tcp[name] = c
	}
	t = time.Now()
	cl.brk, err = lrpc.SuperviseBroker(lrpc.BrokerTenantOpts{
		Tenant: benchTenant, Service: expSyncBrk, BrokerAddrs: []string{cl.brokerAddr},
	})
	if err != nil {
		return cl, st, fmt.Errorf("SuperviseBroker: %w", err)
	}
	st.brokerAdmit = time.Since(t)
	tr.span("SuperviseBroker", root, 0, t, time.Now())
	st.total = time.Since(start)
	return cl, st, nil
}

// close tears the cluster down: clients first, then the broker, then
// the server, then the run directory.
func (cl *cluster) close() {
	for _, c := range cl.shm {
		c.Close()
	}
	for _, c := range cl.tcp {
		c.Close()
	}
	for _, c := range []*lrpc.NetClient{cl.ctl, cl.brokerCtl} {
		if c != nil {
			c.Close()
		}
	}
	if cl.brk != nil {
		cl.brk.Close()
	}
	for _, c := range []*child{cl.broker, cl.server} {
		if c != nil {
			if err := c.stop(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: stop child:", err)
			}
		}
	}
	if cl.dir != "" {
		os.RemoveAll(cl.dir)
		live.Lock()
		delete(live.dirs, cl.dir)
		live.Unlock()
	}
}

// report asks the server (or, with broker set, the broker) for its CPU
// time and counters and, when export is not empty, that export's
// snapshot.
func (cl *cluster) report(broker bool, export string) (report, error) {
	c := cl.ctl
	if broker {
		c = cl.brokerCtl
	}
	var rep report
	out, err := c.Call(ctlReport, []byte(export))
	if err != nil {
		return rep, fmt.Errorf("control report: %w", err)
	}
	return rep, json.Unmarshal(out, &rep)
}

func (cl *cluster) enableMetrics(export string) error {
	_, err := cl.ctl.Call(ctlEnableMetrics, []byte(export))
	return err
}
