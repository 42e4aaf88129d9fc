package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"synergy/internal/chaos"
)

func TestChaosJSON(t *testing.T) {
	var out bytes.Buffer
	err := runChaos(context.Background(), strings.Fields("-json -rounds 32 -lines 64 -workers 2 -seed 9"), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var rep chaos.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if rep.Seed != 9 || rep.EventCount == 0 || rep.EventDigest == "" {
		t.Fatalf("report fields missing: %+v", rep)
	}
	if rep.Failed() {
		t.Fatalf("chaos run failed: %+v %+v", rep.SDCs, rep.Violations)
	}
}

func TestChaosDeterministicDigest(t *testing.T) {
	digest := func() string {
		var out bytes.Buffer
		if err := runChaos(context.Background(), strings.Fields("-json -rounds 48 -permanent -seed 3"), &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		var rep chaos.Report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		return rep.EventDigest
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("same seed, different digests:\n%s\n%s", a, b)
	}
}

func TestChaosTextOutput(t *testing.T) {
	var out bytes.Buffer
	if err := runChaos(context.Background(), strings.Fields("-rounds 16 -lines 32"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"events", "scrub passes", "PASS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
