package adversary

import (
	"bytes"
	"math/rand"
	"testing"

	"synergy/internal/core"
)

// The attack battery: every scenario must land on an expected outcome,
// and none may ever be silent.
func TestBattery(t *testing.T) {
	results, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Scenarios()) {
		t.Fatalf("%d results for %d scenarios", len(results), len(Scenarios()))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: error %v", r.Scenario, r.Err)
			continue
		}
		if r.Outcome == Silent {
			t.Errorf("%s: SILENT CORRUPTION", r.Scenario)
			continue
		}
		if !r.OK {
			t.Errorf("%s: outcome %v not among expectations", r.Scenario, r.Outcome)
		}
		t.Logf("%-48s %v", r.Scenario, r.Outcome)
	}
}

func TestScenarioNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Scenarios() {
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		if len(sc.Expect) == 0 {
			t.Fatalf("%s: no expected outcomes", sc.Name)
		}
		for _, e := range sc.Expect {
			if e == Silent {
				t.Fatalf("%s: Silent can never be an expected outcome", sc.Name)
			}
		}
	}
}

func TestOutcomeString(t *testing.T) {
	for _, tc := range []struct {
		o    Outcome
		want string
	}{{Corrected, "corrected"}, {Detected, "detected"}, {Silent, "SILENT-CORRUPTION"}, {Harmless, "harmless"}} {
		if tc.o.String() != tc.want {
			t.Errorf("%d.String() = %q", tc.o, tc.o.String())
		}
	}
}

// Randomized adversary: arbitrary byte-level tampering of random module
// lines must never produce silent corruption — reads either return the
// true data (corrected/harmless) or fail closed.
func TestRandomTamperNeverSilent(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 30; trial++ {
		arr, err := core.NewArray(core.Config{DataLines: 64})
		if err != nil {
			t.Fatal(err)
		}
		mem := arr.Rank(0)
		want := make([][]byte, 64)
		for i := range want {
			want[i] = bytes.Repeat([]byte{byte(i + trial)}, core.LineSize)
			arr.Write(uint64(i), want[i])
		}
		mem.FlushNodeCache()
		// Tamper 1-4 random chips across random lines anywhere in the
		// module (data, counters, parity, tree).
		total := mem.Module().Lines()
		for k := 0; k < 1+rng.Intn(4); k++ {
			var mask [8]byte
			for b := range mask {
				mask[b] = byte(rng.Intn(256))
			}
			if mask == ([8]byte{}) {
				mask[0] = 1
			}
			mem.Module().InjectTransient(uint64(rng.Intn(int(total))), rng.Intn(9), mask)
		}
		buf := make([]byte, core.LineSize)
		for i := uint64(0); i < 64; i++ {
			_, err := arr.Read(i, buf)
			if err != nil {
				continue // fail-closed is acceptable
			}
			if !bytes.Equal(buf, want[i]) {
				t.Fatalf("trial %d line %d: silent corruption", trial, i)
			}
		}
	}
}
