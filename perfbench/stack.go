package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Child-process hygiene: every run starts its own memnode and magecache
// on fresh ephemeral ports, learns their addresses from the "serving on"
// lines they print, stops them with a signal and waits for them, and
// removes any shm socket memnode left behind. A child that exits before
// it is stopped, or does not exit once stopped, fails the run.

const (
	readyTimeout = 20 * time.Second
	stopTimeout  = 10 * time.Second
)

type child struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed when the process has been waited for
	err  error         // Wait's result, valid after done

	tailMu sync.Mutex
	tail   []string // last lines of output, for error reports
}

var servingRE = regexp.MustCompile(`serving (?:[0-9]+ MiB )?on (\S+)`)

// startChild runs bin with args and waits until it has printed want
// "serving on <addr>" lines, returning the addresses in order.
func startChild(name, bin string, want int, args ...string) (*child, []string, error) {
	cmd := exec.Command(bin, args...)
	// If perfbench dies, the kernel kills the child rather than leave
	// it serving on a port.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw := io.Pipe()
	cmd.Stdout = pw
	cmd.Stderr = pw
	c := &child{name: name, cmd: cmd, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		c.err = cmd.Wait()
		pw.Close()
		close(c.done)
	}()
	addrs := make(chan string, want) // one per expected ready line
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			c.tailMu.Lock()
			c.tail = append(c.tail, line)
			if len(c.tail) > 20 {
				c.tail = c.tail[1:]
			}
			c.tailMu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				select {
				case addrs <- m[1]:
				default:
				}
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, pr) // the pipe only fails once closed
	}()
	var got []string
	deadline := time.NewTimer(readyTimeout)
	defer deadline.Stop()
	for len(got) < want {
		select {
		case a := <-addrs:
			got = append(got, a)
		case <-c.done:
			return nil, nil, fmt.Errorf("%s exited before it was ready: %v\n%s", name, c.err, c.lastLines())
		case <-deadline.C:
			c.kill()
			return nil, nil, fmt.Errorf("%s not ready after %v\n%s", name, readyTimeout, c.lastLines())
		}
	}
	return c, got, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) lastLines() string {
	c.tailMu.Lock()
	defer c.tailMu.Unlock()
	return strings.Join(c.tail, "\n")
}

// alive reports an error when the child has exited without being asked.
func (c *child) alive() error {
	select {
	case <-c.done:
		return fmt.Errorf("%s exited early: %v\n%s", c.name, c.err, c.lastLines())
	default:
		return nil
	}
}

// interrupt sends sig and waits for the child to exit. cleanExit
// demands exit status 0; otherwise death by sig is accepted.
func (c *child) interrupt(sig syscall.Signal, cleanExit bool) error {
	if err := c.alive(); err != nil {
		return err
	}
	if err := c.cmd.Process.Signal(sig); err != nil {
		return fmt.Errorf("signal %s: %w", c.name, err)
	}
	select {
	case <-c.done:
	case <-time.After(stopTimeout):
		c.kill()
		return fmt.Errorf("%s still running %v after %v", c.name, stopTimeout, sig)
	}
	if c.err == nil {
		return nil
	}
	var ee *exec.ExitError
	if !cleanExit && errors.As(c.err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == sig {
			return nil
		}
	}
	return fmt.Errorf("%s: %v\n%s", c.name, c.err, c.lastLines())
}

// kill ends the child unconditionally and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // fails only if it already exited
	<-c.done
}

// stack is one memnode process serving four nodes plus one magecache
// over a 2-shard x 2-replica cluster of those nodes.
type stack struct {
	memnode, cache *child
	nodes          []string // memnode TCP addresses
	cacheAddr      string
}

const (
	stackNodes = 4
	nodeMiB    = 256
	stackKeys  = 1 << 16
	stackRatio = 8
)

// clusterShape is the 2x2 topology perfbench and magecache both use:
// shard 0 on nodes 0 and 1, shard 1 on nodes 2 and 3.
func clusterShape(nodes []string) [][]string {
	return [][]string{{nodes[0], nodes[1]}, {nodes[2], nodes[3]}}
}

// memnodeFlag spells a topology as magecache's -memnode flag:
// comma-separated shards of '/'-separated replicas.
func memnodeFlag(shards [][]string) string {
	s := make([]string, len(shards))
	for i, reps := range shards {
		s[i] = strings.Join(reps, "/")
	}
	return strings.Join(s, ",")
}

func launchStack(bin string) (*stack, error) {
	mn, nodes, err := startChild("memnode", filepath.Join(bin, "memnode"), stackNodes,
		"-listen", "127.0.0.1:0", "-nodes", fmt.Sprint(stackNodes),
		"-transport", "auto", "-capacity-mb", fmt.Sprint(nodeMiB))
	if err != nil {
		return nil, err
	}
	s := &stack{memnode: mn, nodes: nodes}
	mc, addrs, err := startChild("magecache", filepath.Join(bin, "magecache"), 1,
		"-mode", "serve", "-listen", "127.0.0.1:0",
		"-memnode", memnodeFlag(clusterShape(nodes)),
		"-keys", fmt.Sprint(stackKeys), "-ratio", fmt.Sprint(stackRatio))
	if err != nil {
		_ = s.stop() // the start error is the one to report
		return nil, err
	}
	s.cache, s.cacheAddr = mc, addrs[0]
	if err := checkHeap(mc.lastLines(), stackKeys, stackRatio); err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

var heapRE = regexp.MustCompile(`magecache: heap ([0-9]+) pages .* over ([0-9]+) local frames`)

// checkHeap compares the heap magecache reported in its start-up output
// with the geometry perfbench's heap model assumes for keys at ratio,
// so the upager replay cannot drift from the program unnoticed.
func checkHeap(out string, keys int64, ratio int) error {
	m := heapRE.FindStringSubmatch(out)
	if m == nil {
		return errors.New("magecache printed no heap line")
	}
	pages, perr := strconv.ParseUint(m[1], 10, 64)
	frames, ferr := strconv.Atoi(m[2])
	if perr != nil || ferr != nil {
		return fmt.Errorf("magecache heap line %q: %w", m[0], errors.Join(perr, ferr))
	}
	wantPages := heapPagesFor(keys)
	if wantFrames := framesFor(wantPages, ratio); pages != wantPages || frames != wantFrames {
		return fmt.Errorf("magecache heap is %d pages over %d frames, perfbench's model has %d over %d",
			pages, frames, wantPages, wantFrames)
	}
	return nil
}

// alive checks that neither child has exited on its own.
func (s *stack) alive() error {
	if err := s.memnode.alive(); err != nil {
		return err
	}
	if s.cache != nil {
		return s.cache.alive()
	}
	return nil
}

// stop terminates magecache, then interrupts memnode, which closes its
// servers on SIGINT, and removes leftover shm sockets. magecache has no
// handler, and a child started from a background shell inherits SIGINT
// ignored, so it gets SIGTERM.
func (s *stack) stop() error {
	var errs []error
	if s.cache != nil {
		errs = append(errs, s.cache.interrupt(syscall.SIGTERM, false))
	}
	errs = append(errs, s.memnode.interrupt(syscall.SIGINT, true))
	for _, a := range s.nodes {
		if _, port, err := net.SplitHostPort(a); err == nil {
			p := filepath.Join(os.TempDir(), "memnode-shm-"+port+".sock")
			if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
