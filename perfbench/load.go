package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's connection count: one per CPU of the
// 2-CPU hosts the benchmark was tuned on. It is fixed, not read from
// the host, so runs on different hosts send the same load shape.
const clients = 2

// conn is one keep-alive HTTP/1.1 connection driven directly over
// TCP: each request goes out as the prebuilt bytes of request.raw and
// the response is parsed with http.ReadResponse. It dials on first use
// and again after the server closes it.
//
// It replaces net/http's client because that one changed what the
// benchmark reports about the server. On a 2-vCPU host, three
// alternating 15 s runs each of a net/http client (a Transport with
// two idle connections per host) against this one took 0.118 vs
// 0.070 ms of client CPU per request on run-warm and 0.087 vs 0.045 ms
// on run-cold. Run-cold's throughput fell by 22% and its p50 and p99
// rose by 26% and 36%, which is more than the run-to-run spread of
// those metrics. On run-warm, p50 rose by 12%.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
}

func newConn(addr string) *conn { return &conn{addr: addr} }

// do sends one prebuilt request and reads the whole response.
func (c *conn) do(ctx context.Context, raw []byte) (int, []byte, error) {
	if c.nc == nil {
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.nc, c.br = nc, bufio.NewReader(nc)
	}
	if deadline, ok := ctx.Deadline(); ok {
		c.nc.SetDeadline(deadline)
	}
	if _, err := c.nc.Write(raw); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, body, err
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.br = nil, nil
	}
}

// rawRequest is the HTTP/1.1 request for a POST of body to path.
func rawRequest(path string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, len(body))
	return append([]byte(head), body...)
}

// sample is one request of a phase: when it completed, measured from
// the start of the phase, and its client-side latency in ms (+Inf for
// a failed or mismatched request).
type sample struct {
	done time.Duration
	ms   float64
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	// samples holds one entry per request attempted, in completion
	// order.
	samples   []sample
	attempted int
	verified  int
	elapsed   time.Duration
	// firstErr is the first failure, for the log.
	firstErr error
}

func (p *phase) failed() int { return p.attempted - p.verified }

// latencies returns the latency of every request attempted.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.ms
	}
	return out
}

// driveLoop runs a closed loop of len(conns) clients:
// each client sends its next request only once the previous one has
// completed, and every client takes the next position from one shared
// cursor over order (so two clients never step through the same
// sequence in lockstep). It stops once stop reports true for the next
// position, and checks every response.
func driveLoop(ctx context.Context, conns []*conn, w *workload, order []int,
	cursor *atomic.Int64, stop func(pos int64) bool) *phase {
	var (
		mu  sync.Mutex
		out phase
		wg  sync.WaitGroup
	)
	start := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var ok int
			var firstErr error
			for {
				pos := cursor.Add(1) - 1
				if stop(pos) || ctx.Err() != nil {
					break
				}
				r := w.reqs[order[pos%int64(len(order))]]
				t0 := time.Now()
				status, body, err := c.do(ctx, r.raw)
				d := time.Since(t0)
				if err == nil {
					err = r.verify(status, body)
				}
				if err != nil {
					mine = append(mine, sample{time.Since(start), math.Inf(1)})
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				mine = append(mine, sample{time.Since(start), ms(d)})
				ok++
			}
			mu.Lock()
			out.samples = append(out.samples, mine...)
			out.attempted += len(mine)
			out.verified += ok
			if out.firstErr == nil {
				out.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	sort.Slice(out.samples, func(i, j int) bool { return out.samples[i].done < out.samples[j].done })
	return &out
}

// countPhase drives order once from its start.
func countPhase(ctx context.Context, conns []*conn, w *workload, order []int) *phase {
	var cursor atomic.Int64
	n := int64(len(order))
	return driveLoop(ctx, conns, w, order, &cursor, func(pos int64) bool { return pos >= n })
}

// timedPhase cycles the workload's timed sequence from its start for
// the given duration; the requests in flight at the deadline complete
// and count.
func timedPhase(ctx context.Context, conns []*conn, w *workload, d time.Duration) *phase {
	var cursor atomic.Int64
	deadline := time.Now().Add(d)
	return driveLoop(ctx, conns, w, w.order, &cursor, func(int64) bool { return !time.Now().Before(deadline) })
}

// errIfFailed reports a phase that had failures.
func (p *phase) errIfFailed(what string) error {
	if p.failed() > 0 {
		return fmt.Errorf("%s: %d of %d requests failed; first: %v", what, p.failed(), p.attempted, p.firstErr)
	}
	return nil
}
