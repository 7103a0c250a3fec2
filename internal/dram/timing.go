// Package dram models the DRAM devices behind one channel at cycle
// granularity: banks, bank groups, and ranks with the full DDR4/LPDDR3
// timing-constraint set of Table 2, variable burst lengths (the dynamic
// burst-length feature of Section 4.4), data-bus occupancy and turnaround
// tracking, and refresh. The memory controller (package memctrl) drives it
// through two queries: the earliest cycle a command could issue, and the
// state update when it does issue.
package dram

import "fmt"

// Timing holds the DDRx timing constraints in DRAM clock cycles, named as
// in Table 2. The _S/_L suffixes are the DDR4 bank-group-dependent pairs
// (same value for LPDDR3, which has no bank groups).
type Timing struct {
	CL   int // CAS latency: read command to first data beat
	WL   int // write latency: write command to first data beat
	CCDS int // CAS-to-CAS, different bank group
	CCDL int // CAS-to-CAS, same bank group
	RC   int // ACT-to-ACT, same bank
	RTP  int // read to precharge
	RP   int // precharge to ACT
	RCD  int // ACT to column command
	RAS  int // ACT to precharge
	WR   int // write recovery: end of write data to precharge
	RTRS int // rank-to-rank (and read/write turnaround) bus bubble
	WTRS int // end of write data to read command, different bank group
	WTRL int // end of write data to read command, same bank group
	RRDS int // ACT-to-ACT, different bank group
	RRDL int // ACT-to-ACT, same bank group
	FAW  int // four-activate window
	REFI int // average refresh interval
	RFC  int // refresh cycle time
}

// Validate reports the first nonsensical field, used by config loaders.
func (t *Timing) Validate() error {
	type field struct {
		name string
		v    int
	}
	for _, f := range []field{
		{"CL", t.CL}, {"WL", t.WL}, {"CCD_S", t.CCDS}, {"CCD_L", t.CCDL},
		{"RC", t.RC}, {"RTP", t.RTP}, {"RP", t.RP}, {"RCD", t.RCD},
		{"RAS", t.RAS}, {"WR", t.WR}, {"RTRS", t.RTRS}, {"WTR_S", t.WTRS},
		{"WTR_L", t.WTRL}, {"RRD_S", t.RRDS}, {"RRD_L", t.RRDL},
		{"FAW", t.FAW}, {"REFI", t.REFI}, {"RFC", t.RFC},
	} {
		if f.v <= 0 {
			return fmt.Errorf("dram: timing %s = %d must be positive", f.name, f.v)
		}
	}
	if t.CCDL < t.CCDS || t.RRDL < t.RRDS || t.WTRL < t.WTRS {
		return fmt.Errorf("dram: same-bank-group constraints must dominate (_L >= _S)")
	}
	return nil
}

// Geometry describes the channel organization.
type Geometry struct {
	Ranks         int
	BankGroups    int // 1 when the standard has no bank groups (LPDDR3)
	BanksPerGroup int
	PageBytes     int // row-buffer size per rank
	LineBytes     int // cache-block size moved per column command
	Rows          int
}

// Banks returns the total banks per rank.
func (g *Geometry) Banks() int { return g.BankGroups * g.BanksPerGroup }

// BankIndex flattens (rank, group, bank) into [0, Ranks*Banks()).
func (g *Geometry) BankIndex(rank, group, bank int) int {
	return (rank*g.BankGroups+group)*g.BanksPerGroup + bank
}

// LinesPerPage returns the column commands a row buffer can serve.
func (g *Geometry) LinesPerPage() int { return g.PageBytes / g.LineBytes }

// Validate reports configuration errors.
func (g *Geometry) Validate() error {
	switch {
	case g.Ranks <= 0:
		return fmt.Errorf("dram: ranks = %d", g.Ranks)
	case g.BankGroups <= 0 || g.BanksPerGroup <= 0:
		return fmt.Errorf("dram: bank groups %dx%d", g.BankGroups, g.BanksPerGroup)
	case g.LineBytes <= 0 || g.PageBytes < g.LineBytes || g.PageBytes%g.LineBytes != 0:
		return fmt.Errorf("dram: page %dB / line %dB", g.PageBytes, g.LineBytes)
	case g.Rows <= 0:
		return fmt.Errorf("dram: rows = %d", g.Rows)
	}
	return nil
}

// Config is one channel's device configuration.
type Config struct {
	Name     string
	Timing   Timing
	Geometry Geometry
	// ClockNS is the DRAM clock period in nanoseconds (data moves at 2x).
	ClockNS float64
}

// Validate checks both sub-configs.
func (c *Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.ClockNS <= 0 {
		return fmt.Errorf("dram: clock period %v", c.ClockNS)
	}
	return nil
}

// DDR4_3200 returns the server-system device config of Table 2: DDR4-3200,
// 2 ranks, 8 banks in 4 groups, 8KB pages.
func DDR4_3200() Config {
	return Config{
		Name: "DDR4-3200",
		Timing: Timing{
			CL: 20, WL: 16, CCDS: 4, CCDL: 8, RC: 72, RTP: 12, RP: 20,
			RCD: 20, RAS: 52, WR: 4, RTRS: 2, WTRS: 4, WTRL: 12,
			RRDS: 9, RRDL: 11, FAW: 48, REFI: 12480, RFC: 416,
		},
		Geometry: Geometry{
			Ranks: 2, BankGroups: 4, BanksPerGroup: 2,
			PageBytes: 8192, LineBytes: 64, Rows: 1 << 15,
		},
		ClockNS: 0.625, // 1600 MHz clock, 3200 MT/s
	}
}

// LPDDR3_1600 returns the mobile-system device config of Table 2:
// LPDDR3-1600, 2 ranks, 8 banks (no bank groups), 4KB pages.
func LPDDR3_1600() Config {
	return Config{
		Name: "LPDDR3-1600",
		Timing: Timing{
			CL: 12, WL: 6, CCDS: 4, CCDL: 4, RC: 51, RTP: 6, RP: 16,
			RCD: 15, RAS: 34, WR: 6, RTRS: 1, WTRS: 6, WTRL: 6,
			RRDS: 8, RRDL: 8, FAW: 40, REFI: 3120, RFC: 104,
		},
		Geometry: Geometry{
			Ranks: 2, BankGroups: 1, BanksPerGroup: 8,
			PageBytes: 4096, LineBytes: 64, Rows: 1 << 15,
		},
		ClockNS: 1.25, // 800 MHz clock, 1600 MT/s
	}
}
