package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// binaries are the service programs the benchmark spawns.
type binaries struct{ serve, gate string }

// buildBinaries compiles tsvserve and tsvgate from the repository at
// root into dir. Its time is not part of any metric.
func buildBinaries(root, dir string) (binaries, error) {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/tsvserve", "./cmd/tsvgate")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("build service binaries: %v\n%s", err, out)
	}
	return binaries{serve: filepath.Join(dir, "tsvserve"), gate: filepath.Join(dir, "tsvgate")}, nil
}

// child is one spawned service process.
type child struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been reaped
}

// spawn starts bin with args, logging to dir/<name>.log.
func spawn(dir, name, url, bin string, args ...string) (*child, error) {
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// If the benchmark itself is killed, its services die with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, url: url, cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped child carries no information
		close(c.done)
	}()
	return c, nil
}

// stop asks the process to drain (SIGTERM), kills it after a grace
// period, and returns once it has been reaped.
func (c *child) stop() {
	select {
	case <-c.done:
	default:
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.done:
		case <-time.After(10 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.done
		}
	}
	c.log.Close()
}

// waitReady polls url/readyz until it answers 200, the child exits or
// the timeout passes.
func (c *child) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited before it was ready (see %s)", c.name, c.log.Name())
		default:
		}
		if resp, err := client.Get(c.url + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", c.name, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hwmKB returns the child's peak resident set (VmHWM) in KiB.
func (c *child) hwmKB() (int64, error) {
	return hwmKB(strconv.Itoa(c.cmd.Process.Pid))
}

// hwmKB reads VmHWM of /proc/<pid>/status ("self" for this process).
func hwmKB(pid string) (int64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// freeAddr returns a loopback address no one listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// scrapeVars reads the named expvar map from url/debug/vars.
func scrapeVars(ctx context.Context, url, name string) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var all map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		return nil, fmt.Errorf("decode %s/debug/vars: %w", url, err)
	}
	var m map[string]any
	if err := json.Unmarshal(all[name], &m); err != nil {
		return nil, fmt.Errorf("expvar %q at %s: %w", name, url, err)
	}
	return m, nil
}

// number reads a numeric expvar field (0 when absent).
func number(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}
