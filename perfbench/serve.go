package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// serverProc is a running mhla-serve process on a loopback port.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	baseURL string
	health  *http.Client
	exited  chan struct{}
	waitErr error
}

// cacheCounters are the workspace-cache counters of /healthz.
type cacheCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Compiles  int64 `json:"compiles"`
}

func (c cacheCounters) minus(o cacheCounters) cacheCounters {
	return cacheCounters{
		Hits:      c.Hits - o.Hits,
		Misses:    c.Misses - o.Misses,
		Evictions: c.Evictions - o.Evictions,
		Compiles:  c.Compiles - o.Compiles,
	}
}

// freeLoopbackAddr returns a loopback address whose port was free a
// moment ago.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs the server binary with default flags on a free
// loopback port, logging to logw.
func startServer(bin string, logw io.Writer) (*serverProc, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logw, logw
	// The server dies with the benchmark, even when the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{
		cmd:     cmd,
		addr:    addr,
		baseURL: "http://" + addr,
		health:  &http.Client{Timeout: 5 * time.Second},
		exited:  make(chan struct{}),
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// waitHealthy polls /healthz until it answers 200.
func (s *serverProc) waitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := healthCache(s.health, s.baseURL); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after %v: %w", timeout, err)
		}
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before it was healthy: %v", s.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// healthCache reads the workspace-cache counters from a server's
// /healthz.
func healthCache(c *http.Client, baseURL string) (cacheCounters, error) {
	resp, err := c.Get(baseURL + "/healthz")
	if err != nil {
		return cacheCounters{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cacheCounters{}, fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	var doc struct {
		Cache *cacheCounters `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return cacheCounters{}, fmt.Errorf("/healthz: %w", err)
	}
	if doc.Cache == nil {
		return cacheCounters{}, fmt.Errorf("/healthz: no cache block")
	}
	return *doc.Cache, nil
}

// cpuTime is the server's utime+stime so far.
func (s *serverProc) cpuTime() (time.Duration, error) {
	return procCPUTime(strconv.Itoa(s.cmd.Process.Pid))
}

// procCPUTime reads utime+stime of /proc/<pid>/stat; pid may be
// "self".
func procCPUTime(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

// memory reads a kB field (VmRSS, VmHWM) of the server's
// /proc/<pid>/status, in bytes.
func (s *serverProc) memory(field string) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(data), field)
}

// sampleRSS reads the server's VmRSS every interval until stop is
// closed, then sends the samples (in MB) on the returned channel.
func (s *serverProc) sampleRSS(interval time.Duration, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var mb []float64
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- mb
				return
			case <-tick.C:
				if rss, err := s.memory("VmRSS"); err == nil {
					mb = append(mb, float64(rss)/(1<<20))
				}
			}
		}
	}()
	return out
}

// stop sends SIGTERM, lets the server drain, and waits for it to exit
// (killing it if it has not within ten seconds).
func (s *serverProc) stop() error {
	s.health.CloseIdleConnections()
	select {
	case <-s.exited:
		return fmt.Errorf("server had already exited: %v", s.waitErr)
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal server: %w", err)
	}
	select {
	case <-s.exited:
		return s.waitErr
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("server did not drain within 10s; killed")
	}
}
