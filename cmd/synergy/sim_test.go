package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// TestAllFiguresInPaperOrder: -experiment all regenerates every
// performance figure, each once, in the paper's order.
func TestAllFiguresInPaperOrder(t *testing.T) {
	var out bytes.Buffer
	if err := runSim(context.Background(), strings.Fields("-experiment all -instr 2000"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ := strings.Cut(rest, ":")
			got = append(got, id)
		}
	}
	want := "fig6 fig8 fig9 fig10 fig12 fig13 fig14 fig16 fig17"
	if strings.Join(got, " ") != want {
		t.Errorf("figure headers %v, want %s", got, want)
	}
}

func TestUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"fig99", "fig11"} {
		var out bytes.Buffer
		err := runSim(context.Background(), []string{"-experiment", exp, "-instr", "2000"}, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), exp) {
			t.Errorf("-experiment %s: err = %v, want an unknown-experiment error", exp, err)
		}
		if out.Len() != 0 {
			t.Errorf("-experiment %s printed %q", exp, out.String())
		}
	}
}
