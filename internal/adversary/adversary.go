// Package adversary implements the paper's attack model (§II-A1) as a
// library of executable attack scenarios against the functional Synergy
// engine: an attacker with physical access who can read, modify and
// replay anything off-chip — bus traffic, data lines, metadata lines,
// parity. Each scenario drives the engine and classifies the outcome.
//
// Expected outcomes under the paper's security argument:
//
//   - modifications confined to one chip's slice of one line are
//     CORRECTED (indistinguishable from an error; §IV-B bit-flip
//     resilience);
//   - everything else — multi-chip tampering, replay of any subset of
//     the {data, MAC, counter} tuple, tree-node rollback, parity
//     forgery — is DETECTED (ErrAttack, fail-closed);
//   - no scenario may ever yield SILENT (wrong data accepted); with a
//     64-bit MAC the probability is ≈ 2^-64 per forgery attempt.
package adversary

import (
	"bytes"
	"errors"
	"fmt"

	"synergy/internal/core"
	"synergy/internal/dimm"
)

// Outcome classifies what the engine did with an attack.
type Outcome int

const (
	// Corrected: the engine repaired the modification and returned the
	// true data (single-chip modifications only).
	Corrected Outcome = iota
	// Detected: the engine declared an attack (fail-closed).
	Detected
	// Silent: the engine returned WRONG data without complaint — a
	// security failure; no scenario may produce this.
	Silent
	// Harmless: the modification did not affect the read at all (e.g.
	// parity tampering on an error-free line, §IV-B).
	Harmless
)

func (o Outcome) String() string {
	switch o {
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	case Silent:
		return "SILENT-CORRUPTION"
	case Harmless:
		return "harmless"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Scenario is one executable attack.
type Scenario struct {
	Name string
	// Expect lists acceptable outcomes.
	Expect []Outcome
	// Run mounts the attack against a fresh engine and returns the
	// observed outcome.
	Run func(env *Env) (Outcome, error)
}

// Env gives scenarios a populated one-rank victim memory and helpers.
type Env struct {
	Arr    *core.Array // serves the victim's reads and writes
	Target uint64      // victim data line
	Want   []byte      // its current plaintext
}

// rank is the victim's only rank: the attacker's view of off-chip state.
func (e *Env) rank() *core.Memory { return e.Arr.Rank(0) }

// newEnv builds a fresh, populated victim.
func newEnv() (*Env, error) {
	arr, err := core.NewArray(core.Config{DataLines: 128})
	if err != nil {
		return nil, err
	}
	env := &Env{Arr: arr, Target: 37}
	for i := uint64(0); i < 128; i++ {
		line := bytes.Repeat([]byte{byte(i*3 + 1)}, core.LineSize)
		if err := arr.Write(i, line); err != nil {
			return nil, err
		}
		if i == env.Target {
			env.Want = line
		}
	}
	// Attacks tamper with off-chip state; the on-chip metadata cache
	// legitimately survives an attack, but for classification we want
	// every scenario to traverse memory.
	env.rank().FlushNodeCache()
	return env, nil
}

// classifyRead reads the target and classifies against Want.
func (e *Env) classifyRead() (Outcome, error) {
	buf := make([]byte, core.LineSize)
	info, err := e.Arr.Read(e.Target, buf)
	switch {
	case errors.Is(err, core.ErrAttack):
		return Detected, nil
	case err != nil:
		return Detected, err
	case !bytes.Equal(buf, e.Want):
		return Silent, nil
	case info.Corrected:
		return Corrected, nil
	default:
		return Harmless, nil
	}
}

// Scenarios returns the attack battery.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:   "single-chip ciphertext tamper (Rowhammer-style)",
			Expect: []Outcome{Corrected},
			Run: func(e *Env) (Outcome, error) {
				addr := e.rank().Layout().DataAddr(e.Target)
				if err := e.rank().Module().InjectTransient(addr, 2, [8]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
					return Silent, err
				}
				return e.classifyRead()
			},
		},
		{
			Name:   "MAC-chip tamper",
			Expect: []Outcome{Corrected},
			Run: func(e *Env) (Outcome, error) {
				addr := e.rank().Layout().DataAddr(e.Target)
				if err := e.rank().Module().InjectTransient(addr, dimm.ECCChip, [8]byte{0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A}); err != nil {
					return Silent, err
				}
				return e.classifyRead()
			},
		},
		{
			Name:   "cross-chip ciphertext tamper",
			Expect: []Outcome{Detected},
			Run: func(e *Env) (Outcome, error) {
				addr := e.rank().Layout().DataAddr(e.Target)
				e.rank().Module().InjectTransient(addr, 0, [8]byte{1})
				e.rank().Module().InjectTransient(addr, 7, [8]byte{1})
				return e.classifyRead()
			},
		},
		{
			Name:   "replay stale {data, MAC} tuple",
			Expect: []Outcome{Detected},
			Run: func(e *Env) (Outcome, error) {
				lay := e.rank().Layout()
				old, err := e.rank().Module().ReadLine(lay.DataAddr(e.Target))
				if err != nil {
					return Silent, err
				}
				// Victim writes fresh data; attacker replays the old tuple.
				fresh := bytes.Repeat([]byte{0xEE}, core.LineSize)
				if err := e.Arr.Write(e.Target, fresh); err != nil {
					return Silent, err
				}
				e.Want = fresh
				e.rank().FlushNodeCache()
				if err := e.rank().Module().WriteLine(lay.DataAddr(e.Target), old.Data[:], old.ECC[:]); err != nil {
					return Silent, err
				}
				return e.classifyRead()
			},
		},
		{
			Name:   "replay full {data, MAC, counter-line} tuple",
			Expect: []Outcome{Detected},
			Run: func(e *Env) (Outcome, error) {
				lay := e.rank().Layout()
				ctrAddr, _ := lay.CounterAddr(e.Target)
				oldData, _ := e.rank().Module().ReadLine(lay.DataAddr(e.Target))
				oldCtr, _ := e.rank().Module().ReadLine(ctrAddr)
				fresh := bytes.Repeat([]byte{0xDD}, core.LineSize)
				if err := e.Arr.Write(e.Target, fresh); err != nil {
					return Silent, err
				}
				e.Want = fresh
				e.rank().FlushNodeCache()
				e.rank().Module().WriteLine(lay.DataAddr(e.Target), oldData.Data[:], oldData.ECC[:])
				e.rank().Module().WriteLine(ctrAddr, oldCtr.Data[:], oldCtr.ECC[:])
				return e.classifyRead()
			},
		},
		{
			Name:   "splice: relocate another line's {data, MAC}",
			Expect: []Outcome{Detected},
			Run: func(e *Env) (Outcome, error) {
				lay := e.rank().Layout()
				// Copy line 90's tuple over the target (MACs are bound
				// to the address, so this must fail verification).
				donor, err := e.rank().Module().ReadLine(lay.DataAddr(90))
				if err != nil {
					return Silent, err
				}
				if err := e.rank().Module().WriteLine(lay.DataAddr(e.Target), donor.Data[:], donor.ECC[:]); err != nil {
					return Silent, err
				}
				return e.classifyRead()
			},
		},
		{
			Name:   "tree-node rollback",
			Expect: []Outcome{Detected},
			Run: func(e *Env) (Outcome, error) {
				lay := e.rank().Layout()
				if len(lay.TreeBase) == 0 {
					return Detected, nil // degenerate memory: nothing to roll back
				}
				treeAddr := lay.TreeAddr(0, 0)
				old, err := e.rank().Module().ReadLine(treeAddr)
				if err != nil {
					return Silent, err
				}
				// Advance the tree (writes bump the whole path), then
				// roll the node back.
				fresh := bytes.Repeat([]byte{0x66}, core.LineSize)
				if err := e.Arr.Write(e.Target, fresh); err != nil {
					return Silent, err
				}
				e.Want = fresh
				e.rank().FlushNodeCache()
				if err := e.rank().Module().WriteLine(treeAddr, old.Data[:], old.ECC[:]); err != nil {
					return Silent, err
				}
				return e.classifyRead()
			},
		},
		{
			Name:   "parity tamper on an error-free line (§IV-B)",
			Expect: []Outcome{Harmless},
			Run: func(e *Env) (Outcome, error) {
				pAddr, slot := e.rank().Layout().ParityAddr(e.Target)
				if err := e.rank().Module().InjectTransient(pAddr, slot, [8]byte{0xDE, 0xAD}); err != nil {
					return Silent, err
				}
				return e.classifyRead()
			},
		},
		{
			Name:   "parity forgery to steer correction",
			Expect: []Outcome{Detected},
			Run: func(e *Env) (Outcome, error) {
				// Tamper the data (two chips, uncorrectable) AND forge
				// the parity: correction must still fail — accepting a
				// forged-parity reconstruction would require a MAC
				// collision (§IV-B, probability ~2^-64).
				lay := e.rank().Layout()
				addr := lay.DataAddr(e.Target)
				e.rank().Module().InjectTransient(addr, 1, [8]byte{0x42})
				e.rank().Module().InjectTransient(addr, 6, [8]byte{0x24})
				pAddr, slot := lay.ParityAddr(e.Target)
				e.rank().Module().InjectTransient(pAddr, slot, [8]byte{0x99, 0x99})
				return e.classifyRead()
			},
		},
		{
			Name:   "counter-line tamper (single chip)",
			Expect: []Outcome{Corrected},
			Run: func(e *Env) (Outcome, error) {
				ctrAddr, slot := e.rank().Layout().CounterAddr(e.Target)
				if err := e.rank().Module().InjectTransient(ctrAddr, slot, [8]byte{0x13, 0x37}); err != nil {
					return Silent, err
				}
				return e.classifyRead()
			},
		},
		{
			Name:   "counter-line tamper (multi chip)",
			Expect: []Outcome{Detected},
			Run: func(e *Env) (Outcome, error) {
				ctrAddr, _ := e.rank().Layout().CounterAddr(e.Target)
				e.rank().Module().InjectTransient(ctrAddr, 0, [8]byte{0x01})
				e.rank().Module().InjectTransient(ctrAddr, 3, [8]byte{0x02})
				e.rank().Module().InjectTransient(ctrAddr, 6, [8]byte{0x04})
				return e.classifyRead()
			},
		},
	}
}

// Result is one scenario's verdict.
type Result struct {
	Scenario string
	Outcome  Outcome
	OK       bool // outcome was among the expected ones
	Err      error
}

// RunAll executes the battery, each scenario against a fresh victim.
func RunAll() ([]Result, error) {
	var out []Result
	for _, sc := range Scenarios() {
		env, err := newEnv()
		if err != nil {
			return nil, fmt.Errorf("adversary: building env for %q: %w", sc.Name, err)
		}
		got, err := sc.Run(env)
		ok := false
		for _, e := range sc.Expect {
			if got == e {
				ok = true
			}
		}
		if got == Silent {
			ok = false
		}
		out = append(out, Result{Scenario: sc.Name, Outcome: got, OK: ok, Err: err})
	}
	return out, nil
}
