package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one parchmint-serve child process on loopback.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logPath string
	exited  chan struct{}
	waitErr error
}

// serverArgs are the flags the benchmark boots parchmint-serve with; the
// environment block records them.
func serverArgs(dir string, workers int, journal string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-port-file", filepath.Join(dir, "port"), "-j", strconv.Itoa(workers)}
	if journal != "" {
		args = append(args, "-journal", journal)
	}
	return args
}

// startServer execs the binary and returns once /healthz answers 200.
// The child runs with GOMAXPROCS=workers and dies with the benchmark.
func startServer(ctx context.Context, bin, dir string, args []string, workers int) (*server, error) {
	portFile := filepath.Join(dir, "port")
	_ = os.Remove(portFile) // a stale port file would point at a dead server
	logPath := filepath.Join(dir, "server.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server log: %w", err)
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := s.awaitHealthy(ctx, portFile); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w (server log: %s)", err, s.logTail())
	}
	return s, nil
}

func (s *server) awaitHealthy(ctx context.Context, portFile string) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited during boot: %v", s.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if s.base == "" {
			if b, err := os.ReadFile(portFile); err == nil && strings.HasSuffix(string(b), "\n") {
				s.base = "http://127.0.0.1:" + strings.TrimSpace(string(b))
			}
		}
		if s.base != "" {
			if resp, err := client.Get(s.base + "/healthz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("server did not become healthy within 30s")
}

// peakRSSMiB reads the child's VmHWM from /proc.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM, escalates to SIGKILL after five seconds, and
// returns once the process has been reaped.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// logTail is the end of the server's log, for error messages.
func (s *server) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}
