package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// Codec is the type of Hello's reserved codec byte. The binary codec
// is the only framing; the byte stays on the wire so a Hello keeps
// its layout.
type Codec uint8

// CodecBinary is the value peers put in Hello.Codec.
const CodecBinary Codec = 1

// Binary frame header: [magic][version][tag][uvarint body length].
// Version 1 bodies start with a uvarint Seq; version 2 bodies carry a
// uvarint DeadlineMs between the Seq and the payload. A sender emits
// version 2 only for frames that actually carry a deadline, so peers
// that never set one keep producing (and only ever need to accept)
// version 1 — the deadline extension deploys without a flag day.
const (
	binaryMagic           = 0xBA
	binaryVersion         = 1
	binaryVersionDeadline = 2
)

// Message-type tags. tagJSONMsg carries a Paxos message as JSON
// inside a binary frame: election traffic is too rare to earn a
// hand-rolled body. No other type may use it.
const (
	tagHello            = 1
	tagSubmit           = 2
	tagAdmitResult      = 3
	tagSubmitBatch      = 4
	tagAdmitBatchResult = 5
	tagAllocUpdate      = 6
	tagLinkEvent        = 7
	tagWithdraw         = 8
	tagStats            = 9
	tagPing             = 10
	tagPong             = 11
	tagError            = 12
	tagStatus           = 13
	tagStatusReply      = 14
	tagJSONMsg          = 15
	tagRetryAfter       = 16
)

// typeTag maps a message type to its binary tag; the second result is
// false for types the codec does not know.
func typeTag(t Type) (byte, bool) {
	switch t {
	case TypeHello:
		return tagHello, true
	case TypeSubmit:
		return tagSubmit, true
	case TypeAdmitResult:
		return tagAdmitResult, true
	case TypeSubmitBatch:
		return tagSubmitBatch, true
	case TypeAdmitBatchResult:
		return tagAdmitBatchResult, true
	case TypeAllocUpdate:
		return tagAllocUpdate, true
	case TypeLinkEvent:
		return tagLinkEvent, true
	case TypeWithdraw:
		return tagWithdraw, true
	case TypeStats:
		return tagStats, true
	case TypePing:
		return tagPing, true
	case TypePong:
		return tagPong, true
	case TypeError:
		return tagError, true
	case TypeStatus:
		return tagStatus, true
	case TypeStatusReply:
		return tagStatusReply, true
	case TypeRetryAfter:
		return tagRetryAfter, true
	case TypePaxos:
		return tagJSONMsg, true
	}
	return 0, false
}

// ---- primitive encoders -------------------------------------------

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ---- primitive decoder --------------------------------------------

// breader decodes a binary body with sticky error state, so per-field
// bound checks cannot be forgotten on any decode path (fuzz-critical).
// intern, when non-nil, dedups decoded strings: DC names and method
// strings repeat on every frame of a session, and interning turns the
// per-string allocation into a map hit.
type breader struct {
	b      []byte
	off    int
	err    error
	intern map[string]string
}

// Interning bounds: never cache long strings (frame errors, values)
// and stop growing a session's table past a few thousand entries so a
// hostile peer cannot balloon it.
const (
	maxInternLen  = 64
	maxInternSize = 4096
)

func (r *breader) fail() {
	if r.err == nil {
		r.err = ErrBadFrame
	}
}

func (r *breader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *breader) bool() bool { return r.byte() != 0 }

func (r *breader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *breader) svarint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *breader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *breader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail()
		return ""
	}
	bs := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	if r.intern != nil && n <= maxInternLen {
		// The map lookup keyed by string(bs) does not allocate; only a
		// miss pays for the string.
		if s, ok := r.intern[string(bs)]; ok {
			return s
		}
		s := string(bs)
		if len(r.intern) < maxInternSize {
			r.intern[s] = s
		}
		return s
	}
	return string(bs)
}

// count reads an element count and bounds it by the bytes remaining
// (every element costs at least one byte), so a hostile frame cannot
// force a huge slice allocation from a tiny body.
func (r *breader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail()
		return 0
	}
	return int(n)
}

// ---- per-type bodies ----------------------------------------------

func appendSubmit(b []byte, s *Submit) []byte {
	b = binary.AppendVarint(b, int64(s.DemandID))
	b = appendStr(b, s.Src)
	b = appendStr(b, s.Dst)
	b = appendF64(b, s.Bandwidth)
	b = appendF64(b, s.Target)
	b = appendF64(b, s.Charge)
	b = appendF64(b, s.RefundFrac)
	return b
}

func readSubmit(r *breader) Submit {
	return Submit{
		DemandID:   int(r.svarint()),
		Src:        r.str(),
		Dst:        r.str(),
		Bandwidth:  r.f64(),
		Target:     r.f64(),
		Charge:     r.f64(),
		RefundFrac: r.f64(),
	}
}

func appendAdmitResult(b []byte, a *AdmitResult) []byte {
	b = binary.AppendVarint(b, int64(a.DemandID))
	b = appendBool(b, a.Admitted)
	b = appendStr(b, a.Method)
	b = appendF64(b, a.DelayMs)
	return b
}

func readAdmitResult(r *breader) AdmitResult {
	return AdmitResult{
		DemandID: int(r.svarint()),
		Admitted: r.bool(),
		Method:   r.str(),
		DelayMs:  r.f64(),
	}
}

func appendAlloc(b []byte, u *AllocUpdate) []byte {
	b = binary.AppendUvarint(b, u.Epoch)
	b = appendBool(b, u.Backup)
	b = binary.AppendUvarint(b, uint64(len(u.Tunnels)))
	for i := range u.Tunnels {
		t := &u.Tunnels[i]
		b = binary.AppendUvarint(b, uint64(t.Label))
		b = appendF64(b, t.Rate)
		b = binary.AppendUvarint(b, uint64(len(t.Hops)))
		for _, h := range t.Hops {
			b = appendStr(b, h)
		}
	}
	return b
}

func readAlloc(r *breader) AllocUpdate {
	u := AllocUpdate{Epoch: r.uvarint(), Backup: r.bool()}
	n := r.count()
	if n > 0 {
		u.Tunnels = make([]TunnelAlloc, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		t := TunnelAlloc{Label: uint32(r.uvarint()), Rate: r.f64()}
		hn := r.count()
		if hn > 0 {
			t.Hops = make([]string, 0, hn)
		}
		for j := 0; j < hn && r.err == nil; j++ {
			t.Hops = append(t.Hops, r.str())
		}
		u.Tunnels = append(u.Tunnels, t)
	}
	return u
}

func appendLinkEvent(b []byte, e *LinkEvent) []byte {
	b = appendStr(b, e.SrcDC)
	b = appendStr(b, e.DstDC)
	b = appendBool(b, e.Up)
	b = binary.AppendVarint(b, e.AtUnixMs)
	b = appendF64(b, e.RateMbps)
	return b
}

func readLinkEvent(r *breader) LinkEvent {
	return LinkEvent{
		SrcDC:    r.str(),
		DstDC:    r.str(),
		Up:       r.bool(),
		AtUnixMs: r.svarint(),
		RateMbps: r.f64(),
	}
}

func appendStats(b []byte, s *Stats) []byte {
	b = appendStr(b, s.DC)
	b = binary.AppendUvarint(b, uint64(len(s.Rates)))
	for k, v := range s.Rates {
		b = appendStr(b, k)
		b = appendF64(b, v)
	}
	return b
}

func readStats(r *breader) Stats {
	s := Stats{DC: r.str()}
	n := r.count()
	if n > 0 {
		s.Rates = make(map[string]float64, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		v := r.f64()
		if r.err == nil {
			s.Rates[k] = v
		}
	}
	return s
}

func appendStatusReply(b []byte, s *StatusReply) []byte {
	b = binary.AppendUvarint(b, s.Epoch)
	b = binary.AppendUvarint(b, uint64(len(s.Demands)))
	for i := range s.Demands {
		d := &s.Demands[i]
		b = binary.AppendVarint(b, int64(d.DemandID))
		b = appendStr(b, d.Src)
		b = appendStr(b, d.Dst)
		b = appendF64(b, d.Bandwidth)
		b = appendF64(b, d.Target)
		b = appendF64(b, d.Achieved)
		b = appendF64(b, d.Allocated)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Counters)))
	for k, v := range s.Counters {
		b = appendStr(b, k)
		b = binary.AppendVarint(b, v)
	}
	return b
}

func readStatusReply(r *breader) StatusReply {
	s := StatusReply{Epoch: r.uvarint()}
	n := r.count()
	if n > 0 {
		s.Demands = make([]DemandStatus, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		s.Demands = append(s.Demands, DemandStatus{
			DemandID:  int(r.svarint()),
			Src:       r.str(),
			Dst:       r.str(),
			Bandwidth: r.f64(),
			Target:    r.f64(),
			Achieved:  r.f64(),
			Allocated: r.f64(),
		})
	}
	cn := r.count()
	if cn > 0 {
		s.Counters = make(map[string]int64, cn)
	}
	for i := 0; i < cn && r.err == nil; i++ {
		k := r.str()
		v := r.svarint()
		if r.err == nil {
			s.Counters[k] = v
		}
	}
	return s
}

// ---- frame body encode/decode -------------------------------------

// appendBinaryBody appends the binary body for m (uvarint Seq plus a
// type-specific payload) and returns the buffer with the tag and
// header version to place in the frame header. Pointer payloads carry
// a one-byte presence flag so a nil payload survives a round trip as
// nil. A non-zero DeadlineMs promotes the frame to header version 2
// and rides as a uvarint right after the Seq; tagJSONMsg frames stay
// version 1 because the embedded JSON already carries the deadline
// field.
func appendBinaryBody(b []byte, m *Message) ([]byte, byte, byte, error) {
	tag, ok := typeTag(m.Type)
	if !ok {
		return b, 0, 0, fmt.Errorf("wire: no encoding for message type %q", m.Type)
	}
	if tag == tagJSONMsg {
		data, err := json.Marshal(m)
		if err != nil {
			return b, 0, 0, fmt.Errorf("wire: marshal: %w", err)
		}
		b = binary.AppendUvarint(b, m.Seq)
		return append(b, data...), tagJSONMsg, binaryVersion, nil
	}
	ver := byte(binaryVersion)
	b = binary.AppendUvarint(b, m.Seq)
	if m.DeadlineMs > 0 {
		ver = binaryVersionDeadline
		b = binary.AppendUvarint(b, uint64(m.DeadlineMs))
	}
	switch tag {
	case tagHello:
		if b = appendBool(b, m.Hello != nil); m.Hello != nil {
			b = appendStr(b, m.Hello.Role)
			b = appendStr(b, m.Hello.DC)
			b = append(b, byte(m.Hello.Codec))
		}
	case tagSubmit:
		if b = appendBool(b, m.Submit != nil); m.Submit != nil {
			b = appendSubmit(b, m.Submit)
		}
	case tagAdmitResult:
		if b = appendBool(b, m.AdmitResult != nil); m.AdmitResult != nil {
			b = appendAdmitResult(b, m.AdmitResult)
		}
	case tagSubmitBatch:
		b = binary.AppendUvarint(b, uint64(len(m.SubmitBatch)))
		for i := range m.SubmitBatch {
			b = appendSubmit(b, &m.SubmitBatch[i])
		}
	case tagAdmitBatchResult:
		b = binary.AppendUvarint(b, uint64(len(m.AdmitBatchResult)))
		for i := range m.AdmitBatchResult {
			b = appendAdmitResult(b, &m.AdmitBatchResult[i])
		}
	case tagAllocUpdate:
		if b = appendBool(b, m.Alloc != nil); m.Alloc != nil {
			b = appendAlloc(b, m.Alloc)
		}
	case tagLinkEvent:
		if b = appendBool(b, m.LinkEvent != nil); m.LinkEvent != nil {
			b = appendLinkEvent(b, m.LinkEvent)
		}
	case tagWithdraw:
		b = binary.AppendVarint(b, int64(m.WithdrawID))
	case tagStats:
		if b = appendBool(b, m.Stats != nil); m.Stats != nil {
			b = appendStats(b, m.Stats)
		}
	case tagPing, tagPong, tagStatus:
		// Seq-only frames.
	case tagError:
		b = appendStr(b, m.Error)
	case tagStatusReply:
		if b = appendBool(b, m.Status != nil); m.Status != nil {
			b = appendStatusReply(b, m.Status)
		}
	case tagRetryAfter:
		if b = appendBool(b, m.RetryAfter != nil); m.RetryAfter != nil {
			b = binary.AppendVarint(b, m.RetryAfter.RetryAfterMs)
			b = appendStr(b, m.RetryAfter.Reason)
		}
	}
	return b, tag, ver, nil
}

// decodeBinaryBody decodes a binary frame body under header version
// ver. Trailing bytes after the decoded payload are ignored so a
// newer peer may append fields without breaking older decoders. A
// tagJSONMsg body must hold a Paxos message: any other type fails with
// ErrBadFrame, so JSON never reaches a non-election handler. intern
// may be nil.
func decodeBinaryBody(tag, ver byte, body []byte, intern map[string]string) (*Message, error) {
	r := &breader{b: body, intern: intern}
	seq := r.uvarint()
	var deadlineMs int64
	if ver >= binaryVersionDeadline {
		deadlineMs = int64(r.uvarint())
	}
	if tag == tagJSONMsg {
		if r.err != nil {
			return nil, r.err
		}
		var m Message
		if err := json.Unmarshal(body[r.off:], &m); err != nil {
			return nil, fmt.Errorf("%w: embedded json: %v", ErrBadFrame, err)
		}
		if m.Type != TypePaxos {
			return nil, fmt.Errorf("%w: embedded json of type %q", ErrBadFrame, m.Type)
		}
		m.Seq = seq
		if m.DeadlineMs == 0 {
			m.DeadlineMs = deadlineMs
		}
		return &m, nil
	}
	m := &Message{Seq: seq, DeadlineMs: deadlineMs}
	switch tag {
	case tagHello:
		m.Type = TypeHello
		if r.bool() {
			h := Hello{Role: r.str(), DC: r.str(), Codec: Codec(r.byte())}
			m.Hello = &h
		}
	case tagSubmit:
		m.Type = TypeSubmit
		if r.bool() {
			s := readSubmit(r)
			m.Submit = &s
		}
	case tagAdmitResult:
		m.Type = TypeAdmitResult
		if r.bool() {
			a := readAdmitResult(r)
			m.AdmitResult = &a
		}
	case tagSubmitBatch:
		m.Type = TypeSubmitBatch
		n := r.count()
		if n > 0 {
			m.SubmitBatch = make([]Submit, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			m.SubmitBatch = append(m.SubmitBatch, readSubmit(r))
		}
	case tagAdmitBatchResult:
		m.Type = TypeAdmitBatchResult
		n := r.count()
		if n > 0 {
			m.AdmitBatchResult = make([]AdmitResult, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			m.AdmitBatchResult = append(m.AdmitBatchResult, readAdmitResult(r))
		}
	case tagAllocUpdate:
		m.Type = TypeAllocUpdate
		if r.bool() {
			u := readAlloc(r)
			m.Alloc = &u
		}
	case tagLinkEvent:
		m.Type = TypeLinkEvent
		if r.bool() {
			e := readLinkEvent(r)
			m.LinkEvent = &e
		}
	case tagWithdraw:
		m.Type = TypeWithdraw
		m.WithdrawID = int(r.svarint())
	case tagStats:
		m.Type = TypeStats
		if r.bool() {
			s := readStats(r)
			m.Stats = &s
		}
	case tagPing:
		m.Type = TypePing
	case tagPong:
		m.Type = TypePong
	case tagStatus:
		m.Type = TypeStatus
	case tagError:
		m.Type = TypeError
		m.Error = r.str()
	case tagStatusReply:
		m.Type = TypeStatusReply
		if r.bool() {
			s := readStatusReply(r)
			m.Status = &s
		}
	case tagRetryAfter:
		m.Type = TypeRetryAfter
		if r.bool() {
			ra := RetryAfter{RetryAfterMs: r.svarint(), Reason: r.str()}
			m.RetryAfter = &ra
		}
	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrBadFrame, tag)
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}
