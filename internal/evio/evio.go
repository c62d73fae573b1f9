// Package evio serializes detector events in a compact binary framing
// suitable for the instrument's storage and telemetry budget, with a
// streaming reader/writer pair. The format is versioned and
// little-endian:
//
//	file   := magic(4) version(u16) reserved(u16) record*
//	record := eventHeader hits*
//	eventHeader := nHits(u16) source(u8) flags(u8) trueSrc(3×f32)
//	               trueEnergy(f32) arrival(f64)
//	hit    := pos(3×f32) e(f32) sigmaXYZ(3×f32) sigmaE(f32) layer(u8) pad(3)
//
// Ground-truth fields (true source, energy, source label) travel with the
// event because the format's first consumer is the simulation/training
// loop; a flight build would zero them. TrueHits are not serialized — they
// exist only for diagnostics inside a single process.
//
// One hand-rolled codec (putEventHeader/putHit and their decoders) backs
// every entry point — Writer, Reader, Marshal, Unmarshal, AppendRecord and
// Canonical — so they cannot disagree on a single bit.
package evio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/detector"
	"repro/internal/geom"
)

// magic identifies evio streams ("ADEV").
var magic = [4]byte{'A', 'D', 'E', 'V'}

// Version of the on-disk format.
const Version uint16 = 1

// Encoded sizes of the format's fixed-width parts.
const (
	streamHeaderSize = 8
	eventHeaderSize  = 28
	hitSize          = 36
)

// flag bits in the event header.
const (
	flagFullyAbsorbed = 1 << 0
)

var le = binary.LittleEndian

func putF32(b []byte, v float64) { le.PutUint32(b, math.Float32bits(float32(v))) }
func getF32(b []byte) float64    { return float64(math.Float32frombits(le.Uint32(b))) }

// appendStreamHeader appends the stream header (magic, version, reserved).
func appendStreamHeader(dst []byte) []byte {
	dst = append(dst, magic[:]...)
	return append(dst, byte(Version), byte(Version>>8), 0, 0)
}

// checkStreamHeader validates a complete stream header.
func checkStreamHeader(b []byte) error {
	if [4]byte(b[0:4]) != magic {
		return fmt.Errorf("evio: bad magic %q", b[0:4])
	}
	if ver := le.Uint16(b[4:6]); ver != Version {
		return fmt.Errorf("evio: unsupported version %d", ver)
	}
	return nil
}

// checkEncodable rejects events the format cannot represent.
func checkEncodable(ev *detector.Event) error {
	if len(ev.Hits) > math.MaxUint16 {
		return fmt.Errorf("evio: event with %d hits exceeds format limit", len(ev.Hits))
	}
	return nil
}

// putEventHeader encodes ev's header into b[:eventHeaderSize]; the hit
// count must already have passed checkEncodable.
func putEventHeader(b []byte, ev *detector.Event) {
	_ = b[eventHeaderSize-1]
	le.PutUint16(b[0:2], uint16(len(ev.Hits)))
	b[2] = uint8(ev.Source)
	var flags uint8
	if ev.FullyAbsorbed {
		flags |= flagFullyAbsorbed
	}
	b[3] = flags
	putF32(b[4:8], ev.TrueSource.X)
	putF32(b[8:12], ev.TrueSource.Y)
	putF32(b[12:16], ev.TrueSource.Z)
	putF32(b[16:20], ev.TrueEnergy)
	le.PutUint64(b[20:28], math.Float64bits(ev.ArrivalTime))
}

// getEventHeader decodes an event header into *ev (Hits left nil) and
// returns the event's hit count.
func getEventHeader(ev *detector.Event, b []byte) int {
	_ = b[eventHeaderSize-1]
	*ev = detector.Event{
		Source:        detector.SourceKind(b[2]),
		FullyAbsorbed: b[3]&flagFullyAbsorbed != 0,
		TrueSource:    geom.Vec{X: getF32(b[4:8]), Y: getF32(b[8:12]), Z: getF32(b[12:16])},
		TrueEnergy:    getF32(b[16:20]),
		ArrivalTime:   math.Float64frombits(le.Uint64(b[20:28])),
	}
	return int(le.Uint16(b[0:2]))
}

// putHit encodes one hit into b[:hitSize].
func putHit(b []byte, h *detector.Hit) {
	_ = b[hitSize-1]
	putF32(b[0:4], h.Pos.X)
	putF32(b[4:8], h.Pos.Y)
	putF32(b[8:12], h.Pos.Z)
	putF32(b[12:16], h.E)
	putF32(b[16:20], h.SigmaX)
	putF32(b[20:24], h.SigmaY)
	putF32(b[24:28], h.SigmaZ)
	putF32(b[28:32], h.SigmaE)
	b[32], b[33], b[34], b[35] = uint8(h.Layer), 0, 0, 0
}

// getHit decodes one hit from b[:hitSize].
func getHit(b []byte) detector.Hit {
	_ = b[hitSize-1]
	return detector.Hit{
		Pos:    geom.Vec{X: getF32(b[0:4]), Y: getF32(b[4:8]), Z: getF32(b[8:12])},
		E:      getF32(b[12:16]),
		SigmaX: getF32(b[16:20]),
		SigmaY: getF32(b[20:24]),
		SigmaZ: getF32(b[24:28]),
		SigmaE: getF32(b[28:32]),
		Layer:  int(b[32]),
	}
}

// recordSize is the encoded size of ev without a stream header.
func recordSize(ev *detector.Event) int { return eventHeaderSize + hitSize*len(ev.Hits) }

// appendEvent appends ev's record (header and hits) to dst.
func appendEvent(dst []byte, ev *detector.Event) ([]byte, error) {
	if err := checkEncodable(ev); err != nil {
		return dst, err
	}
	off, n := len(dst), recordSize(ev)
	dst = slices.Grow(dst, n)[:off+n]
	putEventHeader(dst[off:], ev)
	off += eventHeaderSize
	for i := range ev.Hits {
		putHit(dst[off:], &ev.Hits[i])
		off += hitSize
	}
	return dst, nil
}

// headerError and hitError report a stream that fails (for a stream held
// in memory: ends) inside an event header or inside hit i of an event.
func headerError(err error) error     { return fmt.Errorf("evio: event header: %w", err) }
func hitError(i int, err error) error { return fmt.Errorf("evio: hit %d: %w", i, err) }

// AppendRecord appends the single-event stream Marshal([]*Event{ev})
// would produce — the payload the flight journal records per admitted
// event — to dst, reusing dst's capacity. On error dst is returned
// unchanged.
func AppendRecord(dst []byte, ev *detector.Event) ([]byte, error) {
	out, err := appendEvent(appendStreamHeader(dst), ev)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// Canonical returns a new event equal to the one Unmarshal(Marshal(ev))
// decodes: hit and ground-truth fields rounded through float32, Source
// and Layer truncated to a byte, TrueHits dropped. It is the form a
// journal replay hands the trigger, so live processing of the canonical
// event is bit-identical to replay. ev is not modified; the error is
// Marshal's for an event the format cannot hold.
func Canonical(ev *detector.Event) (*detector.Event, error) {
	if err := checkEncodable(ev); err != nil {
		return nil, err
	}
	var b [hitSize]byte // also holds the smaller event header
	putEventHeader(b[:], ev)
	out := new(detector.Event)
	out.Hits = make([]detector.Hit, getEventHeader(out, b[:]))
	for i := range ev.Hits {
		putHit(b[:], &ev.Hits[i])
		out.Hits[i] = getHit(b[:])
	}
	return out, nil
}

// Writer streams events to an io.Writer.
type Writer struct {
	w      *bufio.Writer
	buf    []byte // one encoded record, reused
	wrote  bool
	closed bool
}

// NewWriter starts a stream on w. The header is written lazily with the
// first event (or by Close for an empty stream).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) header() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	var hdr [streamHeaderSize]byte
	_, err := w.w.Write(appendStreamHeader(hdr[:0]))
	return err
}

// WriteEvent appends one event to the stream.
func (w *Writer) WriteEvent(ev *detector.Event) error {
	if w.closed {
		return errors.New("evio: write after Close")
	}
	buf, err := appendEvent(w.buf[:0], ev)
	if err != nil {
		return err
	}
	w.buf = buf
	if err := w.header(); err != nil {
		return err
	}
	_, err = w.w.Write(buf)
	return err
}

// Close flushes the stream (writing the header even if no events were
// written). It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.header(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader streams events from an io.Reader.
type Reader struct {
	r       *bufio.Reader
	buf     []byte // one event's hits, reused
	started bool
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// start reads the stream header. An empty stream is a valid stream of no
// events (io.EOF); a stream that ends inside the header is an error.
func (r *Reader) start() error {
	if r.started {
		return nil
	}
	r.started = true
	var hdr [streamHeaderSize]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("evio: stream header: %w", err)
	}
	return checkStreamHeader(hdr[:])
}

// ReadEvent returns the next event, or io.EOF at end of stream.
func (r *Reader) ReadEvent() (*detector.Event, error) {
	if err := r.start(); err != nil {
		return nil, err
	}
	var hdr [eventHeaderSize]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, headerError(err)
	}
	nHits := int(le.Uint16(hdr[0:2]))
	if need := hitSize * nHits; cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	buf := r.buf[:hitSize*nHits]
	if n, err := io.ReadFull(r.r, buf); err != nil {
		if err == io.EOF {
			// The header promised hits: running out here is a truncation,
			// never a clean end of stream.
			err = io.ErrUnexpectedEOF
		}
		return nil, hitError(n/hitSize, err)
	}
	ev := new(detector.Event)
	ev.Hits = make([]detector.Hit, getEventHeader(ev, hdr[:]))
	for i := range ev.Hits {
		ev.Hits[i] = getHit(buf[i*hitSize:])
	}
	return ev, nil
}

// ReadAll drains the stream.
func (r *Reader) ReadAll() ([]*detector.Event, error) {
	var out []*detector.Event
	for {
		ev, err := r.ReadEvent()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}

// WriteAll writes all events and closes the stream.
func WriteAll(w io.Writer, events []*detector.Event) error {
	ew := NewWriter(w)
	for _, ev := range events {
		if err := ew.WriteEvent(ev); err != nil {
			return err
		}
	}
	return ew.Close()
}

// Marshal encodes events as one self-contained evio stream in memory —
// the payload form the flight journal records (one blob per admitted
// event or exposure). The encoding is deterministic: equal event lists
// produce equal bytes.
func Marshal(events []*detector.Event) ([]byte, error) {
	size := streamHeaderSize
	for _, ev := range events {
		size += recordSize(ev)
	}
	out := appendStreamHeader(make([]byte, 0, size))
	for _, ev := range events {
		var err error
		if out, err = appendEvent(out, ev); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Unmarshal decodes a stream produced by Marshal (or any evio stream held
// in memory) straight from data; its events and errors match
// NewReader(bytes.NewReader(data)).ReadAll(). A first pass frames the
// records, so the decode pass allocates all events and all hits at once —
// a single-event journal record decodes with two allocations.
func Unmarshal(data []byte) ([]*detector.Event, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if len(data) < streamHeaderSize {
		return nil, fmt.Errorf("evio: stream header: %w", io.ErrUnexpectedEOF)
	}
	if err := checkStreamHeader(data); err != nil {
		return nil, err
	}
	body := data[streamHeaderSize:]
	var nEvents, nHits int
	var ferr error
	for rest := body; len(rest) > 0; {
		if len(rest) < eventHeaderSize {
			ferr = headerError(io.ErrUnexpectedEOF)
			break
		}
		n := int(le.Uint16(rest[0:2]))
		if len(rest) < eventHeaderSize+hitSize*n {
			ferr = hitError((len(rest)-eventHeaderSize)/hitSize, io.ErrUnexpectedEOF)
			break
		}
		nEvents++
		nHits += n
		rest = rest[eventHeaderSize+hitSize*n:]
	}
	if nEvents == 0 {
		return nil, ferr
	}
	out, events := newEvents(nEvents)
	hits := make([]detector.Hit, nHits)
	for i, rest := 0, body; i < nEvents; i++ {
		ev := &events[i]
		n := getEventHeader(ev, rest)
		ev.Hits, hits = hits[:n:n], hits[n:]
		rest = rest[eventHeaderSize:]
		for k := range ev.Hits {
			ev.Hits[k] = getHit(rest[k*hitSize:])
		}
		rest = rest[hitSize*n:]
	}
	return out, ferr
}

// newEvents allocates n zero events and the slice of pointers to them; a
// single event shares one allocation with its pointer.
func newEvents(n int) ([]*detector.Event, []detector.Event) {
	if n == 1 {
		one := &struct {
			ptr [1]*detector.Event
			ev  [1]detector.Event
		}{}
		one.ptr[0] = &one.ev[0]
		return one.ptr[:], one.ev[:]
	}
	events := make([]detector.Event, n)
	out := make([]*detector.Event, n)
	for i := range events {
		out[i] = &events[i]
	}
	return out, events
}
