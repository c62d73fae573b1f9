package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/stream"
)

// checkResult is one output check; err is nil when it passed.
type checkResult struct {
	name string
	err  error
}

// sameBytes reports where got first differs from want.
func sameBytes(want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	n := min(len(want), len(got))
	i := 0
	for i < n && want[i] == got[i] {
		i++
	}
	return fmt.Errorf("differs at byte %d (lengths %d and %d)", i, len(want), len(got))
}

// segment is one journal segment file.
type segment struct {
	name string
	data []byte
}

// readJournal loads every segment file of the journal at dir, in name
// (that is, sequence) order.
func readJournal(dir string) ([]segment, error) {
	names, err := filepath.Glob(filepath.Join(dir, "journal-*.flog"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	segs := make([]segment, 0, len(names))
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		segs = append(segs, segment{filepath.Base(n), b})
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("no journal segments in %s", dir)
	}
	return segs, nil
}

// sameJournal requires the two journals to have the same segment files with
// the same bytes.
func sameJournal(want, got []segment) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d segments, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].name != got[i].name {
			return fmt.Errorf("segment %d is %s, want %s", i, got[i].name, want[i].name)
		}
		if err := sameBytes(want[i].data, got[i].data); err != nil {
			return fmt.Errorf("segment %s %v", want[i].name, err)
		}
	}
	return nil
}

// recordBytes is the canonical downlink encoding of alert records: one JSON
// object per line, as adaptstream writes them.
func recordBytes(recs []stream.Record) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			panic(err) // stream.Record has no unencodable fields
		}
	}
	return buf.Bytes()
}

// sameRecords requires byte-identical alert records.
func sameRecords(want, got []stream.Record) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	return sameBytes(recordBytes(want), recordBytes(got))
}

// uncovered counts bursts with no OK alert whose trigger time falls inside
// the burst's window, [onset − trigger window, onset + burst window) with
// the flight trigger defaults every workload runs.
func uncovered(onsets []float64, recs []stream.Record) int {
	def := stream.DefaultConfig(1)
	missed := 0
	for _, t0 := range onsets {
		ok := false
		for _, r := range recs {
			if r.OK && r.TriggerS >= t0-def.WindowSec && r.TriggerS < t0+def.BurstWindowSec {
				ok = true
				break
			}
		}
		if !ok {
			missed++
		}
	}
	return missed
}

// detects is the negative self-test of a check: the check, run on a
// deliberately tampered copy of real output, must fail.
func detects(name string, check func() error) checkResult {
	if check() == nil {
		return checkResult{"self-test: " + name, fmt.Errorf("tampered input passed the check")}
	}
	return checkResult{"self-test: " + name, nil}
}

// tamperRecords returns a copy of recs with one field of the middle record
// moved by one ulp.
func tamperRecords(recs []stream.Record) []stream.Record {
	out := append([]stream.Record(nil), recs...)
	if len(out) > 0 {
		r := &out[len(out)/2]
		r.Significance = math.Nextafter(r.Significance, math.Inf(1))
	}
	return out
}

// tamperBytes returns a copy of b with its middle byte flipped.
func tamperBytes(b []byte) []byte {
	out := append([]byte(nil), b...)
	if len(out) > 0 {
		out[len(out)/2] ^= 0x01
	}
	return out
}

// tamperJournal returns a copy of segs with one byte of the last segment
// flipped.
func tamperJournal(segs []segment) []segment {
	out := append([]segment(nil), segs...)
	if n := len(out); n > 0 {
		out[n-1] = segment{out[n-1].name, tamperBytes(out[n-1].data)}
	}
	return out
}

func checkErr(cond bool, format string, args ...any) error {
	if cond {
		return nil
	}
	return fmt.Errorf(format, args...)
}
