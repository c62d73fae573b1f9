package flightlog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// segmentFiles reads every segment file in dir, keyed by name.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(seqs))
	for _, s := range seqs {
		b, err := os.ReadFile(filepath.Join(dir, segName(s)))
		if err != nil {
			t.Fatal(err)
		}
		out[segName(s)] = b
	}
	return out
}

// TestAppendBatchMatchesAppend is group commit's contract: batches leave
// segment files byte-identical to appending the same payloads one by one,
// across size rotation, age rotation and both retention limits.
func TestAppendBatchMatchesAppend(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"size", Options{SegmentBytes: 300}},
		{"age", Options{SegmentMaxAge: time.Minute}},
		{"max-segments", Options{SegmentBytes: 200, MaxSegments: 3}},
		{"max-total-bytes", Options{SegmentBytes: 256, MaxTotalBytes: 1024, SegmentMaxAge: 2 * time.Minute}},
		{"interval", Options{SegmentBytes: 4096, Sync: SyncInterval, SyncEveryBytes: 100}},
	}
	payloads := testPayloads(150)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// run appends every payload, batch by batch (sizes cycling
			// 1..7), advancing the fake clock 25 s after each batch.
			run := func(batched bool) (string, Stats) {
				dir := t.TempDir()
				now := time.Unix(1000, 0)
				opts := tc.opts
				opts.Dir, opts.Now = dir, func() time.Time { return now }
				j, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, size := 0, 1; i < len(payloads); i, size = i+size, size%7+1 {
					batch := payloads[i:min(i+size, len(payloads))]
					if batched {
						err = j.AppendBatch(batch)
					} else {
						for _, p := range batch {
							if err = j.Append(p); err != nil {
								break
							}
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					now = now.Add(25 * time.Second)
				}
				st := j.Stats()
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				return dir, st
			}
			oneDir, oneSt := run(false)
			batchDir, batchSt := run(true)
			one, batch := segmentFiles(t, oneDir), segmentFiles(t, batchDir)
			if len(one) < 2 {
				t.Fatalf("case rotated into %d segment(s); it should exercise rotation", len(one))
			}
			if len(one) != len(batch) {
				t.Fatalf("%d segments per record vs %d batched", len(one), len(batch))
			}
			for name, want := range one {
				if !bytes.Equal(batch[name], want) {
					t.Errorf("%s differs between per-record and batched appends", name)
				}
			}
			if oneSt.Appended != int64(len(payloads)) || batchSt.Appended != int64(len(payloads)) {
				t.Errorf("Appended = %d per record, %d batched; want %d", oneSt.Appended, batchSt.Appended, len(payloads))
			}
			if oneSt.ActiveBytes != batchSt.ActiveBytes || oneSt.TotalBytes != batchSt.TotalBytes {
				t.Errorf("Stats differ: %+v vs %+v", oneSt, batchSt)
			}
		})
	}
}

// TestAppendBatchSyncPolicy: the policy runs once per batch — SyncAlways
// fsyncs before AppendBatch returns, SyncInterval once the batch crosses
// the threshold, SyncNone never.
func TestAppendBatchSyncPolicy(t *testing.T) {
	batch := testPayloads(10) // ~300 framed bytes
	for _, tc := range []struct {
		pol  SyncPolicy
		want int64
	}{{SyncNone, 0}, {SyncInterval, 1}, {SyncAlways, 1}} {
		t.Run(tc.pol.String(), func(t *testing.T) {
			j, err := Open(Options{Dir: t.TempDir(), Sync: tc.pol, SyncEveryBytes: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			if got := j.Stats().Syncs; got != tc.want {
				t.Errorf("Syncs after one batch = %d, want %d", got, tc.want)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got := j.Stats().Syncs; got != tc.want+1 {
				t.Errorf("Syncs after Close = %d, want %d", got, tc.want+1)
			}
		})
	}
	// Per-record appends under SyncAlways fsync every record.
	j, err := Open(Options{Dir: t.TempDir(), Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, p := range batch {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Stats().Syncs; got != int64(len(batch)) {
		t.Errorf("SyncAlways Append: %d syncs for %d records", got, len(batch))
	}
}

// TestAppendBatchOversizeWritesNothing: one payload over MaxRecordBytes
// rejects the whole batch up front, so the records before it are not
// written either and the journal's accounting matches the file.
func TestAppendBatchOversizeWritesNothing(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch([][]byte{[]byte("ok"), make([]byte, MaxRecordBytes+1), []byte("ok")}); err == nil {
		t.Fatal("batch with an oversize record accepted")
	}
	st := j.Stats()
	fi, err := os.Stat(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended != 0 || st.ActiveBytes != headerSize || fi.Size() != headerSize {
		t.Errorf("after rejected batch: Stats %+v, file %d bytes; want nothing written", st, fi.Size())
	}
	if err := j.AppendBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := j.AppendBatch([][]byte{[]byte("a"), {}, []byte("c")}); err != nil {
		t.Fatal(err)
	}
	st = j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Appended != 3 || st.ActiveBytes != headerSize+3*frameSize+2 {
		t.Errorf("Stats after 3 records = %+v", st)
	}
	if got := replayAll(t, dir); len(got) != 3 || string(got[0]) != "a" || len(got[1]) != 0 || string(got[2]) != "c" {
		t.Errorf("replayed %q", got)
	}
	if err := j.AppendBatch([][]byte{[]byte("x")}); err == nil {
		t.Error("AppendBatch after Close accepted")
	}
}
