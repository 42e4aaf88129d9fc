package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"synergy/internal/reliability"
)

// TestFlagPlumbing: every flag must land on BOTH the main-table config
// and the -ivec config. (The pre-fix IVEC branch copied only
// Trials/Seed, so `-ivec -years 5` evaluated IVEC at 7 years while the
// main table showed 5.)
func TestFlagPlumbing(t *testing.T) {
	o, err := parseFaultsim(strings.Fields(
		"-trials 1234 -seed 9 -years 5 -scrub 12 -ranks 2 -workers 3 -target-ci 0.001 -ivec"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	main := configFor(reliability.DefaultConfig(), o)
	ivec := configFor(reliability.IVECConfig(), o)
	for name, cfg := range map[string]reliability.Config{"main": main, "ivec": ivec} {
		if cfg.Trials != 1234 || cfg.Seed != 9 {
			t.Errorf("%s: trials/seed not plumbed: %+v", name, cfg)
		}
		if cfg.LifetimeHours != 5*365.25*24 {
			t.Errorf("%s: -years ignored: lifetime %v h", name, cfg.LifetimeHours)
		}
		if cfg.ScrubHours != 12 {
			t.Errorf("%s: -scrub ignored: %v", name, cfg.ScrubHours)
		}
		if cfg.Ranks != 2 {
			t.Errorf("%s: -ranks ignored: %d", name, cfg.Ranks)
		}
		if cfg.Workers != 3 {
			t.Errorf("%s: -workers ignored: %d", name, cfg.Workers)
		}
		if cfg.TargetCIWidth != 0.001 {
			t.Errorf("%s: -target-ci ignored: %v", name, cfg.TargetCIWidth)
		}
	}
	if main.ChipsPerRank != 9 || ivec.ChipsPerRank != 16 {
		t.Errorf("chips per rank: main %d (want 9), ivec %d (want 16)",
			main.ChipsPerRank, ivec.ChipsPerRank)
	}
}

func TestFaultsimTextOutput(t *testing.T) {
	var out bytes.Buffer
	err := runFaultsim(context.Background(), strings.Fields("-trials 5000 -years 5 -scrub 12 -ranks 2 -ivec"), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"P(fail, 5y)", "Synergy", "IVEC", "SDC rate"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestFaultsimJSONOutput(t *testing.T) {
	var out bytes.Buffer
	err := runFaultsim(context.Background(), strings.Fields("-json -trials 5000 -workers 2 -ivec"), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Results) != 4 {
		t.Fatalf("got %d policy results, want 4", len(rep.Results))
	}
	if rep.Config.Trials != 5000 || rep.Config.Workers != 2 {
		t.Errorf("config echo wrong: %+v", rep.Config)
	}
	if rep.IVEC == nil {
		t.Error("-ivec result missing from JSON")
	} else if rep.IVEC.Trials != 5000 {
		t.Errorf("IVEC ran %d trials, want 5000", rep.IVEC.Trials)
	}
	if rep.TrialsPerSec <= 0 || rep.ElapsedSec <= 0 {
		t.Errorf("throughput not reported: %+v", rep)
	}
	for _, res := range rep.Results {
		if res.Trials != 5000 {
			t.Errorf("%v ran %d trials, want 5000", res.Policy, res.Trials)
		}
	}
}

// TestFaultsimJSONDeterministicAcrossWorkers: the CLI surface inherits the
// engine's bit-determinism — identical JSON results (modulo timing)
// for different -workers.
func TestFaultsimJSONDeterministicAcrossWorkers(t *testing.T) {
	decode := func(workers string) jsonReport {
		var out bytes.Buffer
		if err := runFaultsim(context.Background(), strings.Fields("-json -trials 9000 -workers "+workers), &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		var rep jsonReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := decode("1"), decode("8")
	aj, _ := json.Marshal(a.Results)
	bj, _ := json.Marshal(b.Results)
	if string(aj) != string(bj) {
		t.Fatalf("results differ across workers:\n%s\n%s", aj, bj)
	}
}
