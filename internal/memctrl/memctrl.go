// Package memctrl is a higher-fidelity DDR3 memory-controller backend
// than the streamlined model in internal/dram: it adds the second-order
// timing constraints a real controller schedules around — the four-
// activate window (tFAW), write-to-read bus turnaround (tWTR), row-
// cycle spacing (tRC), write recovery (tWR), and periodic refresh
// (tREFI/tRFC) that takes a rank offline for microseconds at a time.
//
// It implements the same call contract as dram.System (cpu.Memory), so
// any experiment can swap it in; BenchmarkAblationDRAMBackend uses that
// to show the paper's normalized results are robust to the choice of
// timing model.
package memctrl

import "errors"

// Timing holds DDR3 timing parameters in CPU cycles (3.2 GHz core over
// an 800 MHz DDR3-1600 bus: 1 bus cycle = 4 CPU cycles).
type Timing struct {
	TRCD   uint64 // activate to column
	TRP    uint64 // precharge
	TCL    uint64 // column to data
	TRAS   uint64 // activate to precharge (min row open)
	TRC    uint64 // activate to activate, same bank
	TWR    uint64 // write recovery before precharge
	TWTR   uint64 // write data to read command, same rank
	TRTP   uint64 // read to precharge
	TFAW   uint64 // window for at most four activates per rank
	TCCD   uint64 // column-to-column (burst gap)
	TBurst uint64 // data-bus occupancy of one 64-byte transfer
	TREFI  uint64 // average refresh interval
	TRFC   uint64 // refresh cycle time (rank unavailable)
}

// DDR3_1600 returns JEDEC-class DDR3-1600 (11-11-11) timings converted
// to 3.2 GHz CPU cycles.
func DDR3_1600() Timing {
	const busToCPU = 4
	return Timing{
		TRCD:   11 * busToCPU,
		TRP:    11 * busToCPU,
		TCL:    11 * busToCPU,
		TRAS:   28 * busToCPU,
		TRC:    39 * busToCPU,
		TWR:    12 * busToCPU,
		TWTR:   6 * busToCPU,
		TRTP:   6 * busToCPU,
		TFAW:   32 * busToCPU,
		TCCD:   4 * busToCPU,
		TBurst: 4 * busToCPU,
		TREFI:  6240 * busToCPU, // 7.8 us
		TRFC:   208 * busToCPU,  // 260 ns
	}
}

// Config describes the organization (Table III defaults) and timing.
type Config struct {
	Channels    int
	RanksPerCh  int
	BanksPerRk  int
	RowsPerBank int
	ColsPerRow  int
	Timing      Timing
	// Lockstep gangs channel pairs (Chipkill, Fig. 1b).
	Lockstep bool
	// WriteQHigh/WriteQLow: write-drain watermarks per channel.
	WriteQHigh int
	WriteQLow  int
	// RefreshEnabled turns tREFI/tRFC refresh stalls on (default on
	// via DefaultConfig).
	RefreshEnabled bool
}

// DefaultConfig mirrors Table III with DDR3-1600 timing and refresh on.
func DefaultConfig() Config {
	return Config{
		Channels:       2,
		RanksPerCh:     2,
		BanksPerRk:     8,
		RowsPerBank:    64 * 1024,
		ColsPerRow:     128,
		Timing:         DDR3_1600(),
		WriteQHigh:     64,
		WriteQLow:      32,
		RefreshEnabled: true,
	}
}

// Stats aggregates controller activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64
	TotalLat     uint64
	FAWStalls    uint64 // activates delayed by the four-activate window
	RefreshWaits uint64 // accesses delayed by an in-progress refresh
	Turnarounds  uint64 // reads delayed by write-to-read turnaround
}

type bank struct {
	openRow   int64
	readyAt   uint64 // earliest next activate (tRC / tRP chains)
	lastActAt uint64
}

type rank struct {
	banks []bank
	// actHist is a ring of the last four activate times (tFAW).
	actHist [4]uint64
	actPos  int
	// refOffset staggers refreshes across ranks.
	refOffset uint64
}

type channel struct {
	busFree   uint64
	lastWrite uint64 // completion of the last write burst (tWTR)
	writeQ    int
	ranks     []rank
}

// Controller is the detailed-timing memory backend. Not safe for
// concurrent use.
type Controller struct {
	cfg   Config
	chans []channel
	stats Stats
}

// New builds a Controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Channels <= 0 || cfg.RanksPerCh <= 0 || cfg.BanksPerRk <= 0 ||
		cfg.RowsPerBank <= 0 || cfg.ColsPerRow <= 0 {
		return nil, errors.New("memctrl: all organization parameters must be positive")
	}
	if cfg.Lockstep && cfg.Channels%2 != 0 {
		return nil, errors.New("memctrl: lockstep needs an even channel count")
	}
	if cfg.Timing.TBurst == 0 {
		cfg.Timing = DDR3_1600()
	}
	if cfg.WriteQHigh <= 0 {
		cfg.WriteQHigh = 64
	}
	if cfg.WriteQLow < 0 || cfg.WriteQLow >= cfg.WriteQHigh {
		cfg.WriteQLow = cfg.WriteQHigh / 2
	}
	c := &Controller{cfg: cfg}
	c.chans = make([]channel, cfg.Channels)
	for i := range c.chans {
		ranks := make([]rank, cfg.RanksPerCh)
		for r := range ranks {
			ranks[r].banks = make([]bank, cfg.BanksPerRk)
			for b := range ranks[r].banks {
				ranks[r].banks[b].openRow = -1
			}
			// Stagger rank refreshes half a tREFI apart.
			ranks[r].refOffset = uint64(r) * cfg.Timing.TREFI / uint64(cfg.RanksPerCh)
		}
		c.chans[i].ranks = ranks
	}
	return c, nil
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Counts reports total reads and writes (cpu.Memory).
func (c *Controller) Counts() (reads, writes uint64) {
	return c.stats.Reads, c.stats.Writes
}

func (c *Controller) mapAddr(line uint64) (ch, rk, bk int, row int64) {
	ch = int(line % uint64(c.cfg.Channels))
	rest := line / uint64(c.cfg.Channels)
	rest /= uint64(c.cfg.ColsPerRow)
	bk = int(rest % uint64(c.cfg.BanksPerRk))
	rest /= uint64(c.cfg.BanksPerRk)
	rk = int(rest % uint64(c.cfg.RanksPerCh))
	row = int64((rest / uint64(c.cfg.RanksPerCh)) % uint64(c.cfg.RowsPerBank))
	return
}

// refreshDelay pushes t past any refresh window covering it.
func (c *Controller) refreshDelay(t uint64, rk *rank) uint64 {
	if !c.cfg.RefreshEnabled {
		return t
	}
	tm := c.cfg.Timing
	phase := (t + rk.refOffset) % tm.TREFI
	if phase < tm.TRFC {
		c.stats.RefreshWaits++
		return t + (tm.TRFC - phase)
	}
	return t
}

// fawDelay pushes an activate at t past the four-activate window.
func (c *Controller) fawDelay(t uint64, rk *rank) uint64 {
	tm := c.cfg.Timing
	oldest := rk.actHist[rk.actPos]
	if oldest > 0 && t < oldest+tm.TFAW {
		c.stats.FAWStalls++
		t = oldest + tm.TFAW
	}
	rk.actHist[rk.actPos] = t
	rk.actPos = (rk.actPos + 1) % len(rk.actHist)
	return t
}

// lockstepPeer returns the ganged partner channel.
func lockstepPeer(ch int) int { return ch ^ 1 }

// Read issues a read at time now and returns the data-arrival cycle.
func (c *Controller) Read(now uint64, line uint64) uint64 {
	chIdx, rkIdx, bkIdx, row := c.mapAddr(line)
	if c.cfg.Lockstep {
		c.drainWrites(now, lockstepPeer(chIdx))
	}
	c.drainWrites(now, chIdx)

	ch := &c.chans[chIdx]
	rk := &ch.ranks[rkIdx]
	bk := &rk.banks[bkIdx]
	tm := c.cfg.Timing

	start := c.refreshDelay(now, rk)
	// Write-to-read turnaround on the channel.
	if ch.lastWrite > 0 && start < ch.lastWrite+tm.TWTR {
		c.stats.Turnarounds++
		start = ch.lastWrite + tm.TWTR
	}

	var colAt uint64
	if bk.openRow == row {
		c.stats.RowHits++
		colAt = start
	} else {
		c.stats.RowMisses++
		// Precharge + activate, respecting tRC from the last activate
		// and the bank's readiness, then the tFAW window.
		actAt := max64(start, bk.readyAt)
		if bk.lastActAt > 0 && actAt < bk.lastActAt+tm.TRC {
			actAt = bk.lastActAt + tm.TRC
		}
		actAt = c.fawDelay(actAt+tm.TRP, rk)
		bk.lastActAt = actAt
		bk.openRow = row
		colAt = actAt + tm.TRCD
	}
	dataAt := max64(colAt+tm.TCL+tm.TBurst, ch.busFree+tm.TBurst)
	if c.cfg.Lockstep {
		peer := &c.chans[lockstepPeer(chIdx)]
		dataAt = max64(dataAt, peer.busFree+tm.TBurst)
		peer.busFree = dataAt
	}
	ch.busFree = dataAt
	// The bank may precharge tRTP after the column command; model its
	// next-activate readiness from the data completion.
	bk.readyAt = max64(bk.lastActAt+tm.TRAS, dataAt-tm.TBurst+tm.TRTP)

	c.stats.Reads++
	c.stats.TotalLat += dataAt - now
	return dataAt
}

// Write posts a write; bandwidth is consumed on drains.
func (c *Controller) Write(now uint64, line uint64) {
	chIdx, _, _, _ := c.mapAddr(line)
	c.chans[chIdx].writeQ++
	if c.cfg.Lockstep {
		c.chans[lockstepPeer(chIdx)].writeQ++
	}
	c.stats.Writes++
	_ = now
}

// drainWrites empties the queue to the low watermark when it crosses
// the high one, occupying the bus (TBurst+TCCD per write) and marking
// the turnaround point for tWTR.
func (c *Controller) drainWrites(now uint64, chIdx int) {
	ch := &c.chans[chIdx]
	if ch.writeQ < c.cfg.WriteQHigh {
		return
	}
	tm := c.cfg.Timing
	n := uint64(ch.writeQ - c.cfg.WriteQLow)
	from := max64(now, ch.busFree)
	busy := n * (tm.TBurst + tm.TCCD/2)
	ch.busFree = from + busy
	ch.lastWrite = from + busy + tm.TWR
	ch.writeQ = c.cfg.WriteQLow
}

// AvgReadLatency returns the mean read latency (cpu.Memory).
func (c *Controller) AvgReadLatency() float64 {
	if c.stats.Reads == 0 {
		return 0
	}
	return float64(c.stats.TotalLat) / float64(c.stats.Reads)
}

// RowHitRate returns the open-row hit fraction (cpu.Memory).
func (c *Controller) RowHitRate() float64 {
	t := c.stats.RowHits + c.stats.RowMisses
	if t == 0 {
		return 0
	}
	return float64(c.stats.RowHits) / float64(t)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
