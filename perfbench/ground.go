package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/downlink"
	"repro/internal/flightlog"
	"repro/internal/stream"
)

// Downlink settings: adaptstream's -downlink-budget default, a 10% frame
// loss, and the 4096-record codec batch adaptstream uses.
const (
	downlinkBudget = 4096
	downlinkLoss   = 0.10
	downlinkBatch  = 4096
)

// groundRun is one pass of a session's products through the emulated
// downlink into a ground directory.
type groundRun struct {
	wall       time.Duration
	stats      *downlink.Stats
	alertLat   []float64 // enqueue→ground-delivered, event-time seconds
	records    int
	rawBytes   int64
	codecBytes int64
	sinkRecs   int
}

// runGround does what adaptstream -downlink does after a live run: every
// alert record goes up when its localization window closes, the recorded
// journal follows as delta-compressed backfill, a seeded lossy session
// carries both with ARQ, and a DirSink reassembles them under groundDir.
func runGround(groundDir, journalDir string, seed uint64, burstWindowSec float64, alerts []stream.Record, tr *tracer, parent int) (*groundRun, error) {
	start := time.Now()
	sink, err := downlink.NewDirSink(groundDir, 0)
	if err != nil {
		return nil, err
	}
	sess, err := downlink.NewSession(downlink.Config{
		BudgetBytesPerSec: downlinkBudget,
		Seed:              seed,
		Loss:              downlink.LossProfile{DropProb: downlinkLoss},
		OnMessage:         sink.OnMessage,
	})
	if err != nil {
		return nil, err
	}

	g := &groundRun{}
	lastT := 0.0
	sp := tr.begin("downlink", "Session.EnqueueAt(alerts)", parent, "")
	for _, rec := range alerts {
		t := max(rec.TriggerS+burstWindowSec, lastT)
		blob, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		if err := sess.EnqueueAt(t, downlink.ClassAlert, blob); err != nil {
			return nil, fmt.Errorf("enqueue alert: %w", err)
		}
		lastT = t
	}
	sp.end(len(alerts))

	var records [][]byte
	sp = tr.begin("flightlog", "Replay", parent, "")
	err = flightlog.Replay(journalDir, func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		g.rawBytes += int64(len(p))
		return nil
	})
	sp.end(1)
	if err != nil {
		return nil, fmt.Errorf("read onboard journal: %w", err)
	}
	g.records = len(records)
	for lo := 0; lo < len(records); lo += downlinkBatch {
		hi := min(lo+downlinkBatch, len(records))
		sp := tr.begin("downlink", "EncodeRecords", parent, "")
		enc, err := downlink.EncodeRecords(records[lo:hi], downlink.CodecOptions{})
		sp.end(1)
		if err != nil {
			return nil, fmt.Errorf("encode journal: %w", err)
		}
		g.codecBytes += int64(len(enc))
		if err := sess.EnqueueAt(lastT, downlink.ClassJournal, enc); err != nil {
			return nil, fmt.Errorf("enqueue journal: %w", err)
		}
	}

	sp = tr.begin("downlink", "Session.Flush", parent, "")
	drained := sess.Flush(lastT + 86400)
	sp.end(1)
	sp = tr.begin("downlink", "DirSink.Close", parent, "")
	err = sink.Close()
	sp.end(1)
	if err != nil {
		return nil, fmt.Errorf("ground sink: %w", err)
	}
	if !drained {
		return nil, fmt.Errorf("downlink did not drain")
	}
	g.wall = time.Since(start)
	g.stats = sess.Stats()
	g.alertLat = sess.Latencies(downlink.ClassAlert)
	g.sinkRecs = sink.JournalRecords
	return g, nil
}
