package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"

	"mil/internal/sim"
)

// referenceJSON holds the shipped digests: for each workload and each seed
// it ships with, one digest per cell of the simulated statistics (for
// sweep, of each rendered table) plus the two simulated paper ratios.
//
//go:embed reference.json
var referenceJSON []byte

// seedRef is the reference for one (workload, seed).
type seedRef struct {
	Cells        map[string]string `json:"cells"`
	ZerosVsDBI   string            `json:"zeros_vs_dbi"`
	SimTimeVsDBI string            `json:"sim_time_vs_dbi"`
}

// reference maps workload -> seed -> digests.
type reference map[string]map[string]*seedRef

func parseReference(data []byte) (reference, error) {
	ref := reference{}
	if len(data) == 0 {
		return ref, nil
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return ref, nil
}

// loadReference reads the reference from path, or the embedded copy when
// path is empty.
func loadReference(path string) (reference, error) {
	if path == "" {
		return parseReference(referenceJSON)
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return parseReference(data)
}

// save writes the reference with sorted keys, one cell per line.
func (r reference) save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultDigest fingerprints the simulated statistics of a Result. The loop
// counters are left out: they describe how the simulator covered the
// timeline (host-side work), not the simulated machine, and a faster event
// core may legitimately change them.
func resultDigest(res *sim.Result) string {
	cp := *res
	cp.Loop = sim.LoopStats{}
	data, err := json.Marshal(&cp)
	if err != nil {
		// Only a NaN or infinite statistic fails to marshal; the marker
		// matches no reference, so the cell fails the check.
		return "unmarshalable: " + err.Error()
	}
	return textDigest(string(data))
}

// textDigest fingerprints rendered output.
func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// formatRatio renders a simulated ratio the way the reference pins it.
func formatRatio(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// checker is the output check. Every executed cell passes through it once:
// it fails if the cell errored, if its digest differs from the shipped
// reference (for seeds that ship one), or if it differs from the digest the
// same cell produced earlier in this run (every seed).
type checker struct {
	ref       *seedRef // nil when this seed ships no reference
	record    *seedRef // non-nil when writing a new reference
	first     map[string]string
	attempted int
	failed    int
	messages  []string
}

func newChecker(ref *seedRef, recording bool) *checker {
	c := &checker{ref: ref, first: map[string]string{}}
	if recording {
		c.record = &seedRef{Cells: map[string]string{}}
	}
	return c
}

// fail counts one failed attempt with a reason.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.messages) < 20 {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

// cell checks one execution of cell id and reports whether it passed.
func (c *checker) cell(id, digest string, err error) bool {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", id, err)
		return false
	}
	if c.record != nil {
		c.record.Cells[id] = digest
	}
	if c.ref != nil {
		want, ok := c.ref.Cells[id]
		if !ok {
			c.fail("%s: no reference digest (cell list changed?)", id)
			return false
		}
		if want != digest {
			c.fail("%s: digest %s, reference %s", id, digest, want)
			return false
		}
	}
	if prev, ok := c.first[id]; ok && prev != digest {
		c.fail("%s: digest %s differs from this run's earlier %s", id, digest, prev)
		return false
	}
	c.first[id] = digest
	return true
}

// derived checks a cell that must reproduce an earlier Result exactly (a
// recording run, or a replay of the recorded configuration): it fails on
// error or when its digest differs from want ("" skips the comparison).
func (c *checker) derived(id, digest string, err error, want string) bool {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", id, err)
		return false
	}
	if want != "" && want != digest {
		c.fail("%s: digest %s, want %s", id, digest, want)
		return false
	}
	return true
}

// ratios checks the simulated paper ratios against the reference.
func (c *checker) ratios(zeros, time float64) {
	z, t := formatRatio(zeros), formatRatio(time)
	if c.record != nil {
		c.record.ZerosVsDBI, c.record.SimTimeVsDBI = z, t
	}
	if c.ref == nil {
		return
	}
	c.attempted++
	if z != c.ref.ZerosVsDBI || t != c.ref.SimTimeVsDBI {
		c.fail("simulated ratios zeros=%s time=%s, reference zeros=%s time=%s",
			z, t, c.ref.ZerosVsDBI, c.ref.SimTimeVsDBI)
	}
}

// failRatio is failed over attempted.
func (c *checker) failRatio() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
