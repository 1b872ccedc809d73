package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// repoRoot finds the checkout root (the directory holding cmd/obsd) from the
// working directory, which is bench/ under `go run -C bench` and `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "obsd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/obsd above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildObsd compiles cmd/obsd from the checkout's source into
// <root>/.bench_build/obsd. The go build cache makes later calls cheap.
func buildObsd(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "obsd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/obsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/obsd: %v\n%s", err, out)
	}
	return bin, nil
}

// obsd is one running daemon child.
type obsd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>, parsed from the daemon's log
	done chan struct{}

	mu  sync.Mutex
	log bytes.Buffer // the child's stderr, kept for failure reports
}

// obsdGOMAXPROCS pins the daemon's parallelism so numbers from boxes with more
// cores stay comparable with the 2-core sandbox.
const obsdGOMAXPROCS = "2"

// startObsd runs the daemon on a free loopback port, in memory or (dbPath set)
// on a durable file, and returns once it has logged its bound address.
// Cancelling ctx kills it.
func startObsd(ctx context.Context, bin, dbPath string) (*obsd, error) {
	args := []string{"-addr", "127.0.0.1:0", "-trace-sample", "0"}
	if dbPath != "" {
		args = append(args, "-db", dbPath)
	} else {
		args = append(args, "-obstacles", strconv.Itoa(worldObstacles),
			"-entities", strconv.Itoa(sizeP), "-seed", strconv.Itoa(worldSeed))
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+obsdGOMAXPROCS)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &obsd{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok {
				host, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- host:
				default:
				}
			}
		}
		cmd.Wait()
	}()
	select {
	case host := <-addr:
		d.base = "http://" + host
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("obsd exited before serving:\n%s", d.output())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("obsd did not report an address within 60s:\n%s", d.output())
	}
}

func (d *obsd) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// kill sends SIGKILL and waits until the process has ended. A kill leaves the
// OS page cache intact: what survives it is what obsd had written, not only
// what it had fsynced (the chaos harness owns real fault points).
func (d *obsd) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

func (d *obsd) pid() int { return d.cmd.Process.Pid }

// callJSON sends in (when non-nil) as a JSON body and decodes a 200 reply into
// out (when non-nil).
func callJSON(method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		body = bytes.NewReader(mustJSON(in))
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 300))
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// waitHealthy polls /healthz until it answers 200 "ok".
func waitHealthy(base string) (server.HealthResponse, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h server.HealthResponse
		err := callJSON("GET", base+"/healthz", nil, &h)
		if err == nil && h.Status == "ok" {
			return h, nil
		}
		if time.Now().After(deadline) {
			return h, fmt.Errorf("obsd not healthy after 30s: status %q, err %v", h.Status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// loadQ PUTs dataset Q.
func loadQ(base string, w *world) error {
	pts := make([]server.Pt, len(w.Q))
	for i, p := range w.Q {
		pts[i] = pt(p)
	}
	return callJSON("PUT", base+"/v1/datasets/Q", server.CreateDatasetRequest{Points: pts}, nil)
}

// scrape fetches /metrics and sums every series of a family (labels
// collapsed), which is all a before/after delta needs.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, _, _ := strings.Cut(line[:sp], "{")
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// procStats reads what /proc knows about a process: CPU seconds consumed so
// far and the peak resident set. Zero on systems without /proc.
func procStats(pid int) (cpuSeconds, peakRSSMB float64) {
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the whole line, in clock ticks (100 Hz on
		// every Linux Go supports).
		if i := bytes.LastIndexByte(b, ')'); i >= 0 {
			f := strings.Fields(string(b[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				cpuSeconds = (ut + st) / 100
			}
		}
	}
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				peakRSSMB = kb / 1024
			}
		}
	}
	return cpuSeconds, peakRSSMB
}
