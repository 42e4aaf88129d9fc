package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synergy"
	"synergy/internal/core"
	"synergy/internal/server"
	"synergy/internal/telemetry"
)

// TestSubcommands runs every subcommand through the dispatcher on a
// tiny configuration and checks what it prints. server has a test of
// its own (it runs until cancelled), as do the figure loops' outputs.
func TestSubcommands(t *testing.T) {
	dir := t.TempDir()
	trc := filepath.Join(dir, "mcf.trc")
	loadAddr := startTestServer(t)
	cases := []struct {
		name string
		args string
		want []string // substrings of stdout
	}{
		{"sim", "sim -experiment fig8 -instr 2000 -format csv", []string{"# fig8: "}},
		{"faultsim", "faultsim -trials 2000 -json", []string{`"results"`, `"sdc_fit"`}},
		{"report", "report -instr 2000 -trials 2000", []string{"# SYNERGY reproduction report", "## fig11"}},
		{"chaos", "chaos -rounds 16 -lines 32 -workers 2", []string{"PASS: zero SDCs"}},
		{"load closed", "load -addr " + loadAddr + " -duration 200ms -workers 2 -batch-frac 0.2 -trace-every 4",
			[]string{"closed loop, 2 workers", "rpc_read", "traces"}},
		{"load open", "load -addr " + loadAddr + " -duration 200ms -workers 2 -rate 500 -burst-every 50ms -burst-len 20ms -json",
			[]string{`"mode": "open"`, `"rpc_read"`}},
		{"top", "top -count 1 -interval 1ms -addr " + serveSnapshots(t),
			[]string{"endpoint restarted — baseline resynced", "synergy-top  1s window", "read", "2000"}},
		{"trace list", "trace", []string{"Workload roster (29 workloads"}},
		{"trace sample", "trace -sample mcf -n 1000", []string{"mcf (SPECint): 1000 accesses sampled"}},
		{"trace record", "trace -record mcf -n 1000 -o " + trc, []string{"recorded 1000 accesses of mcf"}},
		{"trace replay", "trace -replay " + trc, []string{`trace "mcf": 1000 accesses`, "distinct lines"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if err := run(context.Background(), strings.Fields(c.args), &out, &errOut); err != nil {
				t.Fatalf("synergy %s: %v\n%s", c.args, err, errOut.String())
			}
			for _, want := range c.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("synergy %s: output lacks %q:\n%s", c.args, want, out.String())
				}
			}
		})
	}
}

// startTestServer serves one 256-line tenant in process and returns its
// address.
func startTestServer(t *testing.T) string {
	t.Helper()
	s, err := server.New(server.Config{
		Tenants:   []server.TenantConfig{{Name: "t", Array: core.Config{DataLines: 256, Ranks: 2}}},
		Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s.Addr
}

// serveSnapshots serves /metrics.json as a process that restarts
// between the first and second poll: read counts 1000, then 3, then
// 2003 one second later — one resync, then a 2000 reads/s frame.
func serveSnapshots(t *testing.T) string {
	t.Helper()
	var poll atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics.json" {
			http.NotFound(w, r)
			return
		}
		i := poll.Add(1) - 1
		reads := []uint64{1000, 3, 2003}[min(i, 2)]
		json.NewEncoder(w).Encode(synergy.TelemetrySnapshot{
			TakenUnixNanos: i * int64(time.Second),
			Ops:            map[string]synergy.TelemetryOpSnapshot{"read": {Count: reads}},
		})
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestServerSubcommand: the server comes up on an ephemeral port,
// answers /healthz, and shuts down cleanly — checkpointing its tenant —
// once its context is cancelled. A second boot restores from the
// checkpoint.
func TestServerSubcommand(t *testing.T) {
	dir := t.TempDir()
	for boot := 0; boot < 2; boot++ {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel) // stops the server should the test fail before it does
		stderr := &syncBuffer{}
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, []string{"server", "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
				"-data", dir, "-tenant", "a:tok:128:2"}, io.Discard, stderr)
		}()
		addr := waitFor(t, stderr, regexp.MustCompile(`serving 1 tenant\(s\) on (\S+)`))
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("boot %d: /healthz answered %d", boot, resp.StatusCode)
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("boot %d: shutdown: %v\n%s", boot, err, stderr.String())
		}
		want := fmt.Sprintf("restored %d tenant(s)", boot)
		for _, w := range []string{want, "checkpointed all tenants"} {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("boot %d: stderr lacks %q:\n%s", boot, w, stderr.String())
			}
		}
	}
}

// waitFor polls buf until re matches, and returns its first group.
func waitFor(t *testing.T, buf *syncBuffer, re *regexp.Regexp) string {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := re.FindStringSubmatch(buf.String()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("no %q in:\n%s", re, buf.String())
	return ""
}

// syncBuffer is a bytes.Buffer that a running subcommand may write
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestBadFlags: every subcommand refuses an unknown flag, and -h is
// flag.ErrHelp, which main does not print as an error.
func TestBadFlags(t *testing.T) {
	for _, c := range commands {
		if err := run(context.Background(), []string{c.name, "-bogus"}, io.Discard, io.Discard); err == nil {
			t.Errorf("%s accepted an unknown flag", c.name)
		}
		var help bytes.Buffer
		if err := run(context.Background(), []string{c.name, "-h"}, io.Discard, &help); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: err = %v, want flag.ErrHelp", c.name, err)
		}
		if !strings.Contains(help.String(), "Usage of synergy "+c.name) {
			t.Errorf("%s -h printed %q", c.name, help.String())
		}
	}
	if err := run(context.Background(), []string{"server", "-tenant", "a:b"}, io.Discard, io.Discard); err == nil {
		t.Error("server accepted a malformed -tenant")
	}
}

// TestDispatch: no command, an unknown one and help all print the
// command list.
func TestDispatch(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"help"}} {
		var stderr bytes.Buffer
		if err := run(context.Background(), args, io.Discard, &stderr); err == nil {
			t.Errorf("%q: no error", args)
		}
		for _, c := range commands {
			if !strings.Contains(stderr.String(), "  "+c.name+" ") {
				t.Errorf("%q: usage lacks %s:\n%s", args, c.name, stderr.String())
			}
		}
	}
}

// TestLoadFlagErrors: parseLoad refuses the values that made the load
// generator panic mid-run (-zipf <= 1: rand.NewZipf returns nil; a rate
// above 1e9/s: a zero ticker interval) or silently skewed its mix.
func TestLoadFlagErrors(t *testing.T) {
	for _, args := range []string{
		"-zipf 1", "-zipf 0.5", "-zipf NaN",
		"-rate 2e9", "-rate -1", "-rate NaN",
		"-read-frac 1.5", "-read-frac -0.1",
		"-batch-frac 2", "-batch-frac -1",
	} {
		if _, err := parseLoad(strings.Fields(args), io.Discard); err == nil {
			t.Errorf("%s: accepted", args)
		}
	}
	for _, args := range []string{"", "-zipf 1.01 -rate 1e9 -read-frac 0 -batch-frac 1", "-read-frac 1 -batch-frac 0"} {
		if _, err := parseLoad(strings.Fields(args), io.Discard); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
}
