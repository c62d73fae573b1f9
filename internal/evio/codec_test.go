package evio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/physics"
	"repro/internal/xrand"
)

// referenceMarshal is the format spec written out with encoding/binary's
// reflection-based struct layout — an independent oracle for the
// hand-rolled codec.
func referenceMarshal(events []*detector.Event) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	binary.Write(&buf, binary.LittleEndian, [2]uint16{Version, 0})
	f32 := func(v float64) float32 { return float32(v) }
	for _, ev := range events {
		var flags uint8
		if ev.FullyAbsorbed {
			flags = flagFullyAbsorbed
		}
		binary.Write(&buf, binary.LittleEndian, struct {
			NHits      uint16
			Source     uint8
			Flags      uint8
			TrueSrc    [3]float32
			TrueEnergy float32
			Arrival    float64
		}{uint16(len(ev.Hits)), uint8(ev.Source), flags,
			[3]float32{f32(ev.TrueSource.X), f32(ev.TrueSource.Y), f32(ev.TrueSource.Z)},
			f32(ev.TrueEnergy), ev.ArrivalTime})
		for _, h := range ev.Hits {
			binary.Write(&buf, binary.LittleEndian, struct {
				Pos    [3]float32
				E      float32
				Sigma  [3]float32
				SigmaE float32
				Layer  uint8
				Pad    [3]uint8
			}{[3]float32{f32(h.Pos.X), f32(h.Pos.Y), f32(h.Pos.Z)}, f32(h.E),
				[3]float32{f32(h.SigmaX), f32(h.SigmaY), f32(h.SigmaZ)}, f32(h.SigmaE),
				uint8(h.Layer), [3]uint8{}})
		}
	}
	return buf.Bytes()
}

// wildFloats are the values float64→float32 rounding treats specially.
var wildFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff4000000000001), // quiet and signalling NaN
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -4.9e-324, // float64 subnormals (→ ±0 in float32)
	1e-40, -1.4e-45, // float32 subnormals
	math.MaxFloat64, 3.5e38, // overflow float32 → ±Inf
	math.MaxFloat32, 1 + 1e-12, 0.1, -1234.5678,
}

// randomWildEvent draws an event mixing ordinary and pathological values:
// NaN, ±Inf, ±0, subnormals, out-of-range Source and Layer, TrueHits set.
func randomWildEvent(rng *xrand.RNG) *detector.Event {
	f := func() float64 {
		if rng.Bool(0.4) {
			return wildFloats[rng.IntN(len(wildFloats))]
		}
		return rng.Uniform(-50, 50)
	}
	v := func() geom.Vec { return geom.Vec{X: f(), Y: f(), Z: f()} }
	ev := &detector.Event{
		TrueSource:    v(),
		TrueEnergy:    f(),
		Source:        detector.SourceKind(rng.IntN(600) - 100),
		FullyAbsorbed: rng.Bool(0.5),
		ArrivalTime:   f(),
	}
	for i := rng.IntN(6); i > 0; i-- {
		ev.Hits = append(ev.Hits, detector.Hit{
			Pos: v(), E: f(), SigmaX: f(), SigmaY: f(), SigmaZ: f(), SigmaE: f(),
			Layer: rng.IntN(1200) - 300,
		})
	}
	for i := rng.IntN(3); i > 0; i-- {
		ev.TrueHits = append(ev.TrueHits, detector.TrueHit{
			Pos: v(), E: f(), Layer: rng.IntN(4), Kind: physics.InteractionKind(rng.IntN(3)), Order: i,
		})
	}
	return ev
}

// nanless deep-copies ev with every NaN replaced by a sentinel, so
// reflect.DeepEqual can compare events that legitimately carry NaN.
func nanless(ev *detector.Event) *detector.Event {
	n := func(x float64) float64 {
		if math.IsNaN(x) {
			return -7777
		}
		return x
	}
	nv := func(v geom.Vec) geom.Vec { return geom.Vec{X: n(v.X), Y: n(v.Y), Z: n(v.Z)} }
	out := *ev
	out.TrueSource, out.TrueEnergy, out.ArrivalTime = nv(ev.TrueSource), n(ev.TrueEnergy), n(ev.ArrivalTime)
	if ev.Hits != nil {
		out.Hits = make([]detector.Hit, len(ev.Hits))
		for i, h := range ev.Hits {
			h.Pos, h.E = nv(h.Pos), n(h.E)
			h.SigmaX, h.SigmaY, h.SigmaZ, h.SigmaE = n(h.SigmaX), n(h.SigmaY), n(h.SigmaZ), n(h.SigmaE)
			out.Hits[i] = h
		}
	}
	if ev.TrueHits != nil {
		out.TrueHits = make([]detector.TrueHit, len(ev.TrueHits))
		for i, h := range ev.TrueHits {
			h.Pos, h.E = nv(h.Pos), n(h.E)
			out.TrueHits[i] = h
		}
	}
	return &out
}

// checkCodec asserts every single-record entry point agrees with the
// reflection oracle and with each other on ev, and that none mutates it.
func checkCodec(t *testing.T, ev *detector.Event) {
	t.Helper()
	before := nanless(ev)
	beforeBlob := referenceMarshal([]*detector.Event{ev})

	blob, err := Marshal([]*detector.Event{ev})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !bytes.Equal(blob, beforeBlob) {
		t.Fatalf("Marshal differs from the format reference:\n got %x\nwant %x", blob, beforeBlob)
	}
	prefix := []byte("prefix")
	rec, err := AppendRecord(prefix, ev)
	if err != nil {
		t.Fatalf("AppendRecord: %v", err)
	}
	if !bytes.Equal(rec[:len(prefix)], []byte("prefix")) || !bytes.Equal(rec[len(prefix):], blob) {
		t.Fatalf("AppendRecord != prefix+Marshal:\n got %x\nwant %x", rec[len(prefix):], blob)
	}

	dec, err := Unmarshal(blob)
	if err != nil || len(dec) != 1 {
		t.Fatalf("Unmarshal: %d events, err %v", len(dec), err)
	}
	streamed, err := NewReader(bytes.NewReader(blob)).ReadAll()
	if err != nil || len(streamed) != 1 {
		t.Fatalf("Reader: %d events, err %v", len(streamed), err)
	}
	canon, err := Canonical(ev)
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if canon == ev || (len(ev.Hits) > 0 && &canon.Hits[0] == &ev.Hits[0]) {
		t.Fatal("Canonical aliases its input")
	}
	want := nanless(dec[0])
	if got := nanless(canon); !reflect.DeepEqual(got, want) {
		t.Fatalf("Canonical != Unmarshal∘Marshal:\n got %+v\nwant %+v", got, want)
	}
	if got := nanless(streamed[0]); !reflect.DeepEqual(got, want) {
		t.Fatalf("Reader != Unmarshal:\n got %+v\nwant %+v", got, want)
	}
	// NaN payloads too: the canonical event re-encodes to the same bytes.
	if again, err := Marshal([]*detector.Event{canon}); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("Marshal(Canonical(ev)) != Marshal(ev) (err %v)", err)
	}

	if !reflect.DeepEqual(nanless(ev), before) || !bytes.Equal(referenceMarshal([]*detector.Event{ev}), beforeBlob) {
		t.Fatal("codec mutated its input event")
	}
}

// TestCodecDifferential pins the single-record paths — AppendRecord and
// Canonical, which the journaled stream runs per event — to Marshal and
// Unmarshal, and all of them to the reflection-based format reference,
// over events full of values float32 rounding treats specially.
func TestCodecDifferential(t *testing.T) {
	rng := xrand.New(20261017)
	for i := 0; i < 3000; i++ {
		checkCodec(t, randomWildEvent(rng))
	}
	checkCodec(t, &detector.Event{}) // no hits: Canonical must still give an empty, non-nil hit list
	for _, ev := range fuzzSeedEvents() {
		checkCodec(t, ev)
	}
}

func TestMarshalMatchesReferenceBatch(t *testing.T) {
	rng := xrand.New(5)
	var events []*detector.Event
	for i := 0; i < 50; i++ {
		events = append(events, randomWildEvent(rng))
	}
	blob, err := Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, referenceMarshal(events)) {
		t.Fatal("batch Marshal differs from the format reference")
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil || !bytes.Equal(buf.Bytes(), blob) {
		t.Fatalf("Writer differs from Marshal (err %v)", err)
	}
}

func TestOversizeEventRejected(t *testing.T) {
	ev := &detector.Event{Hits: make([]detector.Hit, math.MaxUint16+1)}
	if _, err := Marshal([]*detector.Event{ev}); err == nil {
		t.Error("Marshal accepted an event over the hit limit")
	}
	dst := []byte("keep")
	out, err := AppendRecord(dst, ev)
	if err == nil || !bytes.Equal(out, []byte("keep")) {
		t.Errorf("AppendRecord = %q, %v; want dst unchanged and an error", out, err)
	}
	if _, err := Canonical(ev); err == nil {
		t.Error("Canonical accepted an event over the hit limit")
	}
}

// TestTruncatedStreams pins the reader's and Unmarshal's shared verdicts
// on streams cut at every byte of a two-event stream.
func TestTruncatedStreams(t *testing.T) {
	blob, err := Marshal(fuzzSeedEvents())
	if err != nil {
		t.Fatal(err)
	}
	first := streamHeaderSize + eventHeaderSize + 2*hitSize
	for cut := 0; cut <= len(blob); cut++ {
		data := blob[:cut]
		got, err := Unmarshal(data)
		streamed, serr := NewReader(bytes.NewReader(data)).ReadAll()
		if fmt.Sprint(err) != fmt.Sprint(serr) || len(got) != len(streamed) {
			t.Fatalf("cut %d: Unmarshal (%d, %v) vs Reader (%d, %v)", cut, len(got), err, len(streamed), serr)
		}
		clean := cut == 0 || cut == streamHeaderSize || cut == first || cut == len(blob)
		if clean != (err == nil) {
			t.Errorf("cut %d: err %v, want clean=%v", cut, err, clean)
		}
	}
}

// FuzzCanonical derives an event from arbitrary bytes — every float field
// an arbitrary 64-bit pattern, Source and Layer arbitrary ints — and runs
// the same differential checks as TestCodecDifferential. The same bytes,
// read as an evio stream, must get identical verdicts from Unmarshal's
// slice decoder and the streaming Reader. Run with
// `go test -fuzz=FuzzCanonical ./internal/evio`.
func FuzzCanonical(f *testing.F) {
	valid, err := Marshal(fuzzSeedEvents())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(bytes.Repeat([]byte{0xFF}, 200))
	f.Add(bytes.Repeat([]byte{0x7F, 0xF8, 0, 0, 0, 0, 0, 1}, 40))
	f.Add(rngBytes(xrand.New(3), 400))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, eventFromBytes(data))

		got, err := Unmarshal(data)
		streamed, serr := NewReader(bytes.NewReader(data)).ReadAll()
		if fmt.Sprint(err) != fmt.Sprint(serr) || len(got) != len(streamed) {
			t.Fatalf("Unmarshal (%d, %v) vs Reader (%d, %v)", len(got), err, len(streamed), serr)
		}
		for i := range got {
			if !reflect.DeepEqual(nanless(got[i]), nanless(streamed[i])) {
				t.Fatalf("event %d: Unmarshal %+v vs Reader %+v", i, got[i], streamed[i])
			}
		}
	})
}

func rngBytes(rng *xrand.RNG, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.IntN(256))
	}
	return b
}

// eventFromBytes consumes data as a sequence of fields; missing bytes read
// as zero.
func eventFromBytes(data []byte) *detector.Event {
	next := func() uint64 {
		var b [8]byte
		data = data[copy(b[:], data):]
		return binary.LittleEndian.Uint64(b[:])
	}
	fl := func() float64 { return math.Float64frombits(next()) }
	v := func() geom.Vec { return geom.Vec{X: fl(), Y: fl(), Z: fl()} }
	ev := &detector.Event{}
	head := next()
	ev.Source = detector.SourceKind(int16(head))
	ev.FullyAbsorbed = head&(1<<16) != 0
	nHits, nTrue := int(head>>20)%7, int(head>>28)%3
	ev.TrueSource, ev.TrueEnergy, ev.ArrivalTime = v(), fl(), fl()
	for i := 0; i < nHits; i++ {
		ev.Hits = append(ev.Hits, detector.Hit{
			Pos: v(), E: fl(), SigmaX: fl(), SigmaY: fl(), SigmaZ: fl(), SigmaE: fl(),
			Layer: int(int32(next())),
		})
	}
	for i := 0; i < nTrue; i++ {
		ev.TrueHits = append(ev.TrueHits, detector.TrueHit{Pos: v(), E: fl(), Order: i})
	}
	return ev
}

// TestSingleRecordAllocs pins the allocation cost of the per-event codec
// paths: the journaled stream's AppendRecord (into a reused buffer) plus
// Canonical allocate only the new event and its hits, and a Marshal →
// Unmarshal round trip of one event allocates three times.
func TestSingleRecordAllocs(t *testing.T) {
	ev := fuzzSeedEvents()[0]
	buf := make([]byte, 0, 1024)
	if got := testing.AllocsPerRun(200, func() {
		buf, _ = AppendRecord(buf[:0], ev)
		if _, err := Canonical(ev); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("AppendRecord+Canonical: %.1f allocs, want <= 2", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		blob, _ := Marshal([]*detector.Event{ev})
		if _, err := Unmarshal(blob); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Errorf("Marshal+Unmarshal: %.1f allocs, want <= 3", got)
	}
}
