// Shm: LRPC between two real OS protection domains. The paper's small-
// kernel argument assumed separate address spaces from the start; this
// example runs the bind → call → crash → recover story with nothing
// simulated. The parent re-execs itself as a server process, binds
// through the fd-passing handshake (the segment fd is the capability,
// the analog of §3.1's Binding Object), makes single-copy 200-byte
// calls through the shared A-stack, then SIGKILLs the server and lets
// a supervisor rebind to a replacement — §5.3's domain termination
// across a process boundary.
//
// Run with: go run ./examples/shm   (Linux; other platforms report
// the shm plane as unsupported and exit cleanly)
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"lrpc"
)

const (
	roleEnv = "LRPC_EXAMPLE_SHM_ROLE"
	sockEnv = "LRPC_EXAMPLE_SHM_SOCK"
)

// blobInterface is the shared export: Sum reads a 200-byte argument
// block straight out of the shared A-stack — the client stub wrote it
// there, and no other copy exists anywhere.
func blobInterface() *lrpc.Interface {
	return &lrpc.Interface{
		Name: "Blob",
		Procs: []lrpc.Proc{{
			Name: "Sum", AStackSize: 256, NumAStacks: 8,
			Handler: func(c *lrpc.Call) {
				var sum uint64
				for _, b := range c.Args() {
					sum += uint64(b)
				}
				binary.LittleEndian.PutUint64(c.ResultsBuf(8), sum)
			},
		}},
	}
}

// serve is the child role: one server process, exiting when the parent
// closes its stdin.
func serve(sock string) {
	sys := lrpc.NewSystem()
	if _, err := sys.Export(blobInterface()); err != nil {
		log.Fatal(err)
	}
	l, err := lrpc.ListenShm(sock)
	if err != nil {
		log.Fatal(err)
	}
	go lrpc.NewShmServer(sys, lrpc.ShmServeOptions{}).Serve(l)
	fmt.Println("READY")
	os.Stdout.Sync()
	io.Copy(io.Discard, os.Stdin) // parent exit ends this domain
}

// spawnServer re-execs this binary as the server role and waits for its
// READY line.
func spawnServer(sock string) (*exec.Cmd, io.WriteCloser, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"=server", sockEnv+"="+sock)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	buf := make([]byte, 6)
	if _, err := io.ReadFull(stdout, buf); err != nil {
		return nil, nil, fmt.Errorf("server handshake: %w", err)
	}
	go io.Copy(io.Discard, stdout)
	return cmd, stdin, nil
}

func main() {
	if os.Getenv(roleEnv) == "server" {
		serve(os.Getenv(sockEnv))
		return
	}

	dir, err := os.MkdirTemp("", "lrpc-shm-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "blob.sock")

	server1, stdin1, err := spawnServer(sock)
	if err != nil {
		log.Fatal(err)
	}
	defer stdin1.Close()
	fmt.Printf("server process %d serving Blob at %s\n", server1.Process.Pid, sock)

	// Supervised bind: the dial closure is the rebind recipe. On this
	// plane a bind is a handshake that hands back an mmap'd segment fd
	// over SCM_RIGHTS — holding the fd is holding the binding.
	sv, err := lrpc.SuperviseShm(func() (*lrpc.ShmClient, error) {
		return lrpc.DialShm(sock, "Blob")
	}, lrpc.SupervisorOpts{})
	if err != nil {
		if errors.Is(err, lrpc.ErrShmUnsupported) {
			fmt.Println("shm plane unsupported on this platform; nothing to demonstrate")
			return
		}
		log.Fatal(err)
	}
	defer sv.Close()
	c := sv.Binding().Shm()
	fmt.Printf("bound: %d pairwise A-stack slots of %d bytes, shared with pid %d\n",
		c.Slots(), c.SlotSize(), server1.Process.Pid)

	// Single-copy calls: the 200-byte argument block is written once,
	// into the shared A-stack; the server's handler reads it in place.
	args := make([]byte, 200)
	for i := range args {
		args[i] = byte(i)
	}
	res, err := sv.Call(0, args)
	if err != nil {
		log.Fatal(err)
	}
	const n = 5000
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := sv.Call(0, args); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("Sum(200 bytes) = %d across the process boundary, %v per call\n",
		binary.LittleEndian.Uint64(res), time.Since(start)/n)

	// Crash the server domain outright: no bye frame, the segment's
	// ring epoch still armed — the client sees a peer crash and the
	// binding is revoked.
	fmt.Printf("killing server process %d mid-session...\n", server1.Process.Pid)
	server1.Process.Kill()
	server1.Wait()

	// A replacement domain takes over the socket; the supervisor's next
	// call hits ErrRevoked, re-dials, and completes against the new
	// process — the caller never sees the failure.
	server2, stdin2, err := spawnServer(sock)
	if err != nil {
		log.Fatal(err)
	}
	defer stdin2.Close()
	res, err = sv.Call(0, args)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered onto server process %d: Sum = %d, rebinds = %d\n",
		server2.Process.Pid, binary.LittleEndian.Uint64(res), sv.Stats().Rebinds)
}
