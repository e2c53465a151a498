package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ring/internal/status"
)

// Cluster shape under test: five ringd processes, three coordinators
// (node IDs 0..2) and two redundancy nodes (3..4), hosting rep3 as
// memgest 1 and srs3.2 as memgest 2.
const (
	numNodes     = 5
	numCoords    = 3
	memgestFlags = "rep3,srs3.2"
	// blockSize gives the srs3.2 memgest 3 × 4 MiB of primary capacity
	// (lcm(k,s) = 3 blocks), room for the whole key space converted
	// into it plus the versions in flight.
	blockSize     = 4 << 20
	fsyncInterval = 5 * time.Millisecond
	bootTimeout   = 30 * time.Second
)

// cluster is one freshly booted set of ringd processes with their own
// ports and (durable workloads only) data directories.
type cluster struct {
	ringd  string
	fabric []string // TCP fabric address of node i
	http   []string // monitoring address of node i
	procs  []*exec.Cmd
	exited []chan struct{}
	logs   []*os.File
}

// live tracks booted clusters so a watchdog or a signal can tear them
// down before the benchmark exits.
var live struct {
	mu sync.Mutex
	cs map[*cluster]bool
}

// freePorts reserves n distinct loopback ports by holding listeners on
// port 0 open together, then releases them for the children to bind.
func freePorts(n int) ([]int, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// bootCluster starts five ringd children in dir and waits until every
// node reports serving.
func bootCluster(ringd, dir string, durable bool) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(2 * numNodes)
	if err != nil {
		return nil, err
	}
	c := &cluster{ringd: ringd}
	for i := 0; i < numNodes; i++ {
		c.fabric = append(c.fabric, fmt.Sprintf("127.0.0.1:%d", ports[i]))
		c.http = append(c.http, fmt.Sprintf("127.0.0.1:%d", ports[numNodes+i]))
	}
	live.mu.Lock()
	if live.cs == nil {
		live.cs = make(map[*cluster]bool)
	}
	live.cs[c] = true
	live.mu.Unlock()

	for i := 0; i < numNodes; i++ {
		args := []string{
			"-id", strconv.Itoa(i),
			"-nodes", strings.Join(c.fabric, ","),
			"-shards", strconv.Itoa(numCoords),
			"-redundant", strconv.Itoa(numNodes - numCoords),
			"-memgests", memgestFlags,
			"-block-size", strconv.Itoa(blockSize),
			"-http", c.http[i],
		}
		if durable {
			args = append(args,
				"-data-dir", filepath.Join(dir, fmt.Sprintf("node-%d", i)),
				"-fsync", "interval",
				"-fsync-interval", fsyncInterval.String())
		}
		logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("node-%d.log", i)))
		if err != nil {
			c.teardown()
			return nil, err
		}
		c.logs = append(c.logs, logf)
		cmd := exec.Command(ringd, args...)
		// A node is one event loop. Five of them share this machine's
		// CPUs, and with the default GOMAXPROCS each node's runtime spins
		// idle Ps that the other nodes need; one P per node is the
		// machine-per-node deployment the cluster stands in for.
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stdout = logf
		cmd.Stderr = logf
		// A child must not outlive the benchmark even if the benchmark
		// itself is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			c.teardown()
			return nil, fmt.Errorf("starting ringd %d: %w", i, err)
		}
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		c.procs = append(c.procs, cmd)
		c.exited = append(c.exited, done)
	}
	if err := c.waitServing(); err != nil {
		c.teardown()
		return nil, err
	}
	return c, nil
}

// waitServing polls every node's /status until all report serving.
func (c *cluster) waitServing() error {
	deadline := time.Now().Add(bootTimeout)
	hc := &http.Client{Timeout: time.Second}
	for i := range c.http {
		for {
			select {
			case <-c.exited[i]:
				return fmt.Errorf("ringd %d exited during boot (log: %s)", i, c.logs[i].Name())
			default:
			}
			if servingAt(hc, c.http[i]) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("ringd %d not serving after %s", i, bootTimeout)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

func servingAt(hc *http.Client, addr string) bool {
	resp, err := hc.Get("http://" + addr + "/status")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var s status.Snapshot
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&s) == nil && s.Serving
}

// pids returns the process IDs of the children, in node order.
func (c *cluster) pids() []int {
	out := make([]int, len(c.procs))
	for i, p := range c.procs {
		out[i] = p.Process.Pid
	}
	return out
}

// teardown sends SIGTERM to every child, escalates to SIGKILL after a
// grace period, waits for each to exit, and then checks that no
// process of this ringd binary is left running.
func (c *cluster) teardown() error {
	for i, p := range c.procs {
		select {
		case <-c.exited[i]:
		default:
			_ = p.Process.Signal(syscall.SIGTERM)
		}
	}
	grace := time.After(3 * time.Second)
	for i, p := range c.procs {
		select {
		case <-c.exited[i]:
		case <-grace:
			_ = p.Process.Kill()
			<-c.exited[i]
		}
	}
	for _, f := range c.logs {
		f.Close()
	}
	live.mu.Lock()
	delete(live.cs, c)
	live.mu.Unlock()
	return checkNoRingd(c.ringd)
}

// checkNoRingd scans /proc for processes running the given binary.
// Matching on the executable, not on a command-line pattern, cannot
// match the shell or tool doing the scan.
func checkNoRingd(binary string) error {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return err
	}
	var left []string
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil {
			continue
		}
		if exe == binary {
			left = append(left, e.Name())
		}
	}
	if len(left) > 0 {
		return fmt.Errorf("ringd processes still running after teardown: %s", strings.Join(left, ","))
	}
	return nil
}

// killAll tears down every live cluster (watchdog and signal path).
func killAll() {
	live.mu.Lock()
	cs := make([]*cluster, 0, len(live.cs))
	for c := range live.cs {
		cs = append(cs, c)
	}
	live.mu.Unlock()
	for _, c := range cs {
		_ = c.teardown()
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
