package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// TestReportDeterministic: two runs with the same flags print the same
// bytes, the headline-vs-paper lines included.
func TestReportDeterministic(t *testing.T) {
	args := strings.Fields("-instr 2000 -trials 2000")
	var a, b bytes.Buffer
	if err := runReport(context.Background(), args, &a, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runReport(context.Background(), args, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two runs differ:\n%s\n---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "Headline vs paper:") || !strings.Contains(a.String(), "## fig11") {
		t.Errorf("report lacks headline targets or Fig. 11:\n%s", a.String())
	}
}
