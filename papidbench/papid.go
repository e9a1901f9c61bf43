package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// papidProc is one papid child process listening on a loopback port
// it picked itself.
type papidProc struct {
	cmd  *exec.Cmd
	addr string

	logMu   sync.Mutex
	logTail []string // last lines of papid's stderr, for diagnostics
	logDone chan struct{}
	exited  chan struct{}
	waitErr error
}

// startPapid launches bin with args plus an ephemeral -addr and waits
// until papid logs the address it listens on.
func startPapid(bin string, args []string) (*papidProc, error) {
	full := append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, full...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start papid: %w", err)
	}
	p := &papidProc{cmd: cmd, logDone: make(chan struct{}), exited: make(chan struct{})}
	addrCh := make(chan string, 1)
	go p.readLog(stderr, addrCh)
	go func() {
		<-p.logDone // Wait closes the pipe; let the reader finish first
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("papid exited before listening: %v\n%s", p.waitErr, p.tail())
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("papid did not report a listen address within 30s\n%s", p.tail())
	}
}

// readLog drains papid's stderr, so it never blocks on logging, keeps
// the last lines, and reports the "papid: listening addr=..." line.
func (p *papidProc) readLog(r io.Reader, addrCh chan<- string) {
	defer close(p.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		ln := sc.Text()
		p.logMu.Lock()
		p.logTail = append(p.logTail, ln)
		if len(p.logTail) > 40 {
			p.logTail = p.logTail[len(p.logTail)-40:]
		}
		p.logMu.Unlock()
		if !sent && strings.Contains(ln, "papid: listening") {
			if i := strings.Index(ln, "addr="); i >= 0 {
				f := strings.Fields(ln[i+len("addr="):])
				if len(f) > 0 {
					addrCh <- strings.Trim(f[0], `"`)
					sent = true
				}
			}
		}
	}
	_, _ = io.Copy(io.Discard, r) // keep draining past an over-long line
}

func (p *papidProc) tail() string {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	return strings.Join(p.logTail, "\n")
}

// cpu returns papid's user+system CPU time so far, every thread
// included.
func (p *papidProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB returns papid's peak resident set size (VmHWM) in MiB.
func (p *papidProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(ln, "VmHWM:") {
			f := strings.Fields(ln)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks papid to drain (SIGTERM) and waits for it to exit,
// killing it if the drain takes longer than 15s.
func (p *papidProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		p.kill()
		return fmt.Errorf("papid did not drain within 15s; killed\n%s", p.tail())
	}
	if p.waitErr != nil {
		return fmt.Errorf("papid exit: %v\n%s", p.waitErr, p.tail())
	}
	return nil
}

func (p *papidProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// genCPU returns this generator process's user+system CPU time.
func genCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
