package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"synergy/internal/stats"
	"synergy/internal/trace"
)

// runTrace is `synergy trace`: it inspects the synthetic workload
// roster that stands in for the paper's SPEC2006/GAP traces. It lists
// the 29 workloads with their profile parameters, or samples a stream
// and reports its empirical statistics.
//
//	synergy trace                          # list the roster
//	synergy trace -sample mcf              # sample a stream and report stats
//	synergy trace -sample mcf -n 500000
//	synergy trace -record mcf -o mcf.trc   # record a trace file
//	synergy trace -replay mcf.trc          # inspect a recorded trace
func runTrace(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("trace", stderr)
	sample := fs.String("sample", "", "benchmark to sample (empty: list the roster)")
	record := fs.String("record", "", "benchmark to record to a trace file")
	out := fs.String("o", "workload.trc", "output path for -record")
	replay := fs.String("replay", "", "trace file to inspect")
	n := fs.Int("n", 200_000, "accesses to sample/record")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *record != "":
		return recordTrace(stdout, *record, *out, *n)
	case *replay != "":
		return replayTrace(stdout, *replay)
	case *sample != "":
		p, err := trace.ByName(*sample)
		if err != nil {
			return err
		}
		sampleStream(stdout, p, *n)
	default:
		listRoster(stdout)
	}
	return nil
}

func recordTrace(w io.Writer, name, path string, n int) error {
	p, err := trace.ByName(name)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteTrace(f, p.Name, n, trace.NewStream(p, 0, 1)); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded %d accesses of %s to %s (%d bytes, %.1f B/access)\n",
		n, p.Name, path, st.Size(), float64(st.Size())/float64(n))
	return nil
}

func replayTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	name, accs, err := trace.ReadTrace(f)
	if err != nil {
		return err
	}
	rp, err := trace.NewReplay(name, accs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %q: %d accesses\n", rp.Name(), rp.Len())
	var gaps, writes, deps float64
	touched := map[uint64]bool{}
	for _, a := range accs {
		gaps += float64(a.Gap)
		if a.Write {
			writes++
		}
		if a.Dependent {
			deps++
		}
		touched[a.Addr] = true
	}
	fn := float64(len(accs))
	fmt.Fprintf(w, "  APKI:            %.1f\n", 1000*fn/gaps)
	fmt.Fprintf(w, "  write fraction:  %.3f\n", writes/fn)
	fmt.Fprintf(w, "  dependent loads: %.3f\n", deps/fn)
	fmt.Fprintf(w, "  distinct lines:  %d\n", len(touched))
	return nil
}

func listRoster(w io.Writer) {
	tbl := stats.NewTable("workload", "suite", "APKI", "write%", "footprint(MB)", "stream%", "pointer%")
	for _, wl := range trace.Workloads() {
		for _, p := range wl.Parts {
			tbl.AddRow(wl.Name+"/"+p.Name, p.Suite, p.APKI, p.WriteFrac*100,
				float64(p.FootprintLines)*64/1e6, p.StreamFrac*100, p.PointerFrac*100)
			if wl.RateRun {
				break // rate mode: one profile, 4 copies
			}
		}
	}
	fmt.Fprintf(w, "Workload roster (%d workloads; paper §V):\n%s", len(trace.Workloads()), tbl)
}

func sampleStream(w io.Writer, p trace.Profile, n int) {
	s := trace.NewStream(p, 0, 1)
	var gaps, writes, deps, seq float64
	var prev uint64
	touched := map[uint64]bool{}
	for i := 0; i < n; i++ {
		a := s.Next()
		gaps += float64(a.Gap)
		if a.Write {
			writes++
		}
		if a.Dependent {
			deps++
		}
		if a.Addr == prev+1 {
			seq++
		}
		prev = a.Addr
		touched[a.Addr] = true
	}
	fn := float64(n)
	fmt.Fprintf(w, "%s (%s): %d accesses sampled\n", p.Name, p.Suite, n)
	fmt.Fprintf(w, "  APKI (empirical):    %.1f (profile %.1f)\n", 1000*fn/gaps, p.APKI)
	fmt.Fprintf(w, "  write fraction:      %.3f (profile %.2f)\n", writes/fn, p.WriteFrac)
	fmt.Fprintf(w, "  dependent loads:     %.3f\n", deps/fn)
	fmt.Fprintf(w, "  sequential pairs:    %.3f\n", seq/fn)
	fmt.Fprintf(w, "  distinct lines:      %d of %d footprint\n", len(touched), p.FootprintLines)
}
