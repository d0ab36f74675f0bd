// Package loadtest is the multi-process load-test harness for the
// sharded schedserve deployment: it spawns k schedserve shards plus one
// schedlb front tier on the local box, drives a mixed solve/session
// workload through the proxy at a target request rate, verifies every
// response against the consistent-hash ring's prediction (the
// X-Sched-Shard echo), and reports exact latency percentiles per
// operation class.
//
// The harness runs real OS processes, not in-process handlers, so the
// measurement includes everything a deployment pays for: TCP, JSON
// (de)serialization, per-process schedulers and GCs.  Children are
// either the real schedserve/schedlb binaries (CI builds them first) or
// re-execs of the calling binary in a child mode, selected by the
// SCHEDLOAD_CHILD environment variable and entered via MaybeRunChild —
// cmd/schedload and this package's tests both install the hook, so
// `go run ./cmd/schedload` and `go test` work with nothing prebuilt.
package loadtest

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"setupsched/internal/lb"
)

// ClusterConfig describes the topology to spawn.
type ClusterConfig struct {
	// Shards is the number of schedserve processes (>= 1).
	Shards int
	// ServeBin and LBBin are paths to real schedserve/schedlb binaries.
	// Empty means re-exec the current executable with the -child-shard /
	// -child-lb flags that cmd/schedload implements.
	ServeBin string
	LBBin    string
	// Replicas is the ring vnode count handed to the lb (0 = default).
	// The workload driver must predict owners with the same value.
	Replicas int
	// Logf receives child lifecycle messages; nil silences them.
	Logf func(format string, args ...any)
}

// Cluster is a running shard fleet plus its front tier.
type Cluster struct {
	// Shards lists the backend topology (ids s0..s{k-1} and base URLs).
	Shards []lb.Shard
	// LBURL is the front tier's base URL; all workload traffic goes here.
	LBURL string

	procs []*exec.Cmd
	logf  func(format string, args ...any)
}

// FreePort reserves an ephemeral localhost port and releases it for a
// child to bind.  The tiny bind race is the standard cost of spawning
// real processes; readiness polling below absorbs the rare loser.
func FreePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port, nil
}

// StartCluster spawns the shards and the lb and waits until every
// process answers /healthz.  Call Stop (typically deferred) to tear the
// fleet down; on error the partial fleet is already stopped.
func StartCluster(ctx context.Context, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("loadtest: need at least one shard, got %d", cfg.Shards)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("loadtest: resolving self executable: %w", err)
	}
	c := &Cluster{logf: logf}
	fail := func(err error) (*Cluster, error) {
		c.Stop()
		return nil, err
	}

	for i := 0; i < cfg.Shards; i++ {
		port, err := FreePort()
		if err != nil {
			return fail(err)
		}
		id := fmt.Sprintf("s%d", i)
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		var cmd *exec.Cmd
		if cfg.ServeBin != "" {
			cmd = exec.Command(cfg.ServeBin, "-addr", addr, "-shard-id", id)
		} else {
			cmd = exec.Command(self)
			cmd.Env = append(os.Environ(),
				"SCHEDLOAD_CHILD=shard",
				"SCHEDLOAD_ADDR="+addr,
				"SCHEDLOAD_SHARD_ID="+id)
		}
		if err := c.startProc(cmd, id); err != nil {
			return fail(err)
		}
		c.Shards = append(c.Shards, lb.Shard{ID: id, URL: "http://" + addr})
	}

	port, err := FreePort()
	if err != nil {
		return fail(err)
	}
	lbAddr := fmt.Sprintf("127.0.0.1:%d", port)
	specs := make([]string, len(c.Shards))
	for i, s := range c.Shards {
		specs[i] = s.ID + "=" + s.URL
	}
	var cmd *exec.Cmd
	if cfg.LBBin != "" {
		args := []string{"-addr", lbAddr}
		if cfg.Replicas > 0 {
			args = append(args, "-replicas", fmt.Sprint(cfg.Replicas))
		}
		for _, s := range c.Shards {
			args = append(args, "-shard", s.ID+"="+s.URL)
		}
		cmd = exec.Command(cfg.LBBin, args...)
	} else {
		cmd = exec.Command(self)
		cmd.Env = append(os.Environ(),
			"SCHEDLOAD_CHILD=lb",
			"SCHEDLOAD_ADDR="+lbAddr,
			"SCHEDLOAD_LB_SHARDS="+strings.Join(specs, ","),
			fmt.Sprintf("SCHEDLOAD_REPLICAS=%d", cfg.Replicas))
	}
	if err := c.startProc(cmd, "lb"); err != nil {
		return fail(err)
	}
	c.LBURL = "http://" + lbAddr

	// Readiness: every shard first (the lb's aggregated health needs
	// them), then the lb itself reporting the whole fleet healthy.
	for _, s := range c.Shards {
		if err := waitReady(ctx, s.URL+"/healthz"); err != nil {
			return fail(fmt.Errorf("loadtest: shard %s not ready: %w", s.ID, err))
		}
	}
	if err := waitReady(ctx, c.LBURL+"/healthz"); err != nil {
		return fail(fmt.Errorf("loadtest: lb not ready: %w", err))
	}
	logf("cluster up: %d shards behind %s", len(c.Shards), c.LBURL)
	return c, nil
}

func (c *Cluster) startProc(cmd *exec.Cmd, name string) error {
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("loadtest: starting %s: %w", name, err)
	}
	c.logf("started %s (pid %d)", name, cmd.Process.Pid)
	c.procs = append(c.procs, cmd)
	return nil
}

// Stop terminates the fleet: SIGTERM first so shards run their graceful
// shutdown (session snapshot flush included), SIGKILL after a grace
// period.
func (c *Cluster) Stop() {
	for _, p := range c.procs {
		if p.Process != nil {
			p.Process.Signal(os.Interrupt)
		}
	}
	deadline := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() {
		for _, p := range c.procs {
			p.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-deadline:
		for _, p := range c.procs {
			if p.Process != nil {
				p.Process.Kill()
			}
		}
		<-done
	}
	c.procs = nil
}

// waitReady polls a health endpoint until it answers 200.
func waitReady(ctx context.Context, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	var last error
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			last = err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w (last probe: %v)", ctx.Err(), last)
		case <-time.After(50 * time.Millisecond):
		}
	}
}
