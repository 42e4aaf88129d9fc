// Command synergy is the reproduction's one command line. Its
// subcommands regenerate every figure of the SYNERGY paper (HPCA 2018)
// from the performance and reliability simulators, stress the
// functional engine, and serve, drive and watch it over the network.
//
//	synergy <command> [flags]
//
// Run it without arguments for the command list, and `synergy
// <command> -h` for a command's flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"synergy"
	"synergy/internal/profiles"
	"synergy/internal/telemetry"
)

// command is one subcommand. run parses its own flags from args and
// writes its results to stdout and its diagnostics to stderr.
type command struct {
	name    string
	summary string
	run     func(ctx context.Context, args []string, stdout, stderr io.Writer) error
}

var commands = []command{
	{"sim", "performance figures: Fig. 6, 8, 9, 10, 12, 13, 14, 16 and 17", runSim},
	{"faultsim", "reliability figure: Fig. 11", runFaultsim},
	{"report", "every figure as one markdown report", runReport},
	{"chaos", "seeded fault-injection stress run against a live Array", runChaos},
	{"server", "the HTTP/JSON secure-memory service", runServer},
	{"load", "load generator against a running server", runLoad},
	{"top", "live console view of a metrics endpoint", runTop},
	{"trace", "the synthetic workload roster: list, sample, record, replay", runTrace},
}

func main() {
	// Ctrl-C or SIGTERM cancels ctx: long runs stop at their next
	// boundary and the server shuts down cleanly; a second signal kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "synergy: %v\n", err)
		}
		os.Exit(1)
	}
}

// run dispatches args[0] to its subcommand. Everything a subcommand
// defers (profile flushes, listener closes) has run when it returns.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return errors.New("no command given")
	}
	for _, c := range commands {
		if c.name == args[0] {
			if err := c.run(ctx, args[1:], stdout, stderr); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			return nil
		}
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return flag.ErrHelp
	}
	usage(stderr)
	return fmt.Errorf("unknown command %q", args[0])
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: synergy <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\n'synergy <command> -h' lists a command's flags.")
}

// newFlagSet returns the flag set of subcommand name, reporting parse
// errors and -h on stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("synergy "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// shared holds the flags that several subcommands take, so that each
// is declared once: -metrics and the internal/profiles set.
type shared struct {
	metrics string
	prof    profiles.Flags
}

// register adds -metrics when metrics is set and the profiling flags
// when prof is set.
func (s *shared) register(fs *flag.FlagSet, metrics, prof bool) {
	if metrics {
		fs.StringVar(&s.metrics, "metrics", "", "serve telemetry (/metrics, /metrics.json) on this address during the run")
	}
	if prof {
		s.prof.Register(fs)
	}
}

// start begins whatever profiling the flags ask for and, when -metrics
// names an address, serves a fresh telemetry registry there and
// returns it; reg is nil (telemetry off) otherwise. stop ends both and
// must run before the subcommand returns.
func (s *shared) start(name string, stderr io.Writer) (reg *telemetry.Registry, stop func(), err error) {
	stopProf, err := s.prof.Start("synergy " + name)
	if err != nil {
		return nil, nil, err
	}
	if s.metrics == "" {
		return nil, stopProf, nil
	}
	reg = telemetry.New()
	srv, err := synergy.ServeMetrics(s.metrics, reg)
	if err != nil {
		stopProf()
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "synergy %s: telemetry on http://%s/metrics\n", name, srv.Addr)
	return reg, func() { srv.Close(); stopProf() }, nil
}
