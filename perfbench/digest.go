package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ladm/internal/stats"
)

// digest returns the hex SHA-256 of a record's canonical JSON — the
// encoding/json rendering of stats.Run, the same bytes the service
// persists and serves. Records that are byte-identical hash equally;
// any changed counter changes the digest.
func digest(run *stats.Run) (string, error) {
	b, err := json.Marshal(run)
	if err != nil {
		return "", fmt.Errorf("encoding record: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// pinDigits is how many leading hex digits of a digest a pin keeps: 64
// bits tell any changed record apart while keeping the pin files small.
const pinDigits = 16

// pinSet maps a cell id to the pinned digest prefix of its record.
type pinSet map[string]string

func (p pinSet) put(cell, digest string) { p[cell] = digest[:pinDigits] }

func pinPath(dir, workload string) string { return filepath.Join(dir, workload+".txt") }

// loadPins reads a workload's pin file: one "<cell> <digest>" per line,
// '#' lines are comments.
func loadPins(dir, workload string) (pinSet, error) {
	f, err := os.Open(pinPath(dir, workload))
	if err != nil {
		return nil, fmt.Errorf("reading pins: %w", err)
	}
	defer f.Close()
	p := pinSet{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		cell, d, ok := strings.Cut(text, " ")
		if !ok || len(d) != pinDigits {
			return nil, fmt.Errorf("%s:%d: want \"<cell> <%d hex digits of sha256>\"", pinPath(dir, workload), line, pinDigits)
		}
		p[cell] = d
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading pins: %w", err)
	}
	return p, nil
}

// save writes the pin file sorted by cell, so regenerating unchanged
// pins leaves the file byte-identical.
func (p pinSet) save(dir, workload, header string) error {
	cells := make([]string, 0, len(p))
	for c := range p {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", header)
	for _, c := range cells {
		fmt.Fprintf(&b, "%s %s\n", c, p[c])
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(pinPath(dir, workload), []byte(b.String()), 0o644)
}

// check compares a record against its cell's pin. A missing pin is a
// mismatch too: the benchmark only requests cells it has pinned.
func (p pinSet) check(cell string, run *stats.Run) error {
	want, ok := p[cell]
	if !ok {
		return fmt.Errorf("cell %s has no pinned digest", cell)
	}
	got, err := digest(run)
	if err != nil {
		return err
	}
	if got[:pinDigits] != want {
		return fmt.Errorf("cell %s: record digest %s, pinned %s", cell, got[:pinDigits], want)
	}
	return nil
}
