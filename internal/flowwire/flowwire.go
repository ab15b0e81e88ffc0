// Package flowwire is the template-driven flow-export codec shared by
// NetFlow v9 (RFC 3954) and IPFIX (RFC 7011). The two formats carry
// the same IANA-numbered fields in the same template/data set
// structure and differ only in framing, which a Dialect describes:
// internal/netflow and internal/ipfix each supply one and nothing
// else. Sets, templates and records are handled here, once.
//
// Only the paper's observable fields are representable — addresses,
// ports, protocol, counters, no payload — which is precisely why the
// methodology must work from flow summaries alone.
package flowwire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/simtime"
)

// The IANA field types a flow.Record has a place for, numbered alike as
// NetFlow v9 field types and IPFIX information elements.
const (
	FieldInBytes     = 1
	FieldInPkts      = 2
	FieldProtocol    = 4
	FieldTCPFlags    = 6
	FieldL4SrcPort   = 7
	FieldIPv4SrcAddr = 8
	FieldL4DstPort   = 11
	FieldIPv4DstAddr = 12
)

// FieldSpec is one (type, length) pair in a template.
type FieldSpec struct {
	Type   uint16
	Length uint16
}

// Template describes the layout of the data records in a data set.
type Template struct {
	ID     uint16 // >= 256
	Fields []FieldSpec
}

// FlowFields is the part of a flow.Record the wire can carry, in the
// order appendRecord writes it. Both dialects' templates begin with it.
var FlowFields = []FieldSpec{
	{FieldIPv4SrcAddr, 4}, {FieldIPv4DstAddr, 4},
	{FieldL4SrcPort, 2}, {FieldL4DstPort, 2},
	{FieldProtocol, 1}, {FieldTCPFlags, 1},
	{FieldInPkts, 4}, {FieldInBytes, 4},
}

const flowFieldsLen = 22 // bytes appendRecord writes

// Header is what a message header tells the codec, whatever its layout.
type Header struct {
	ExportTime uint32 // Unix seconds
	Seq        uint32
	Source     uint32 // v9 source ID, IPFIX observation domain
}

// Dialect is everything that differs between the two export formats.
// The codec consults it once per message, never per record.
type Dialect struct {
	Name      string // error prefix
	HeaderLen int
	// SeqOffset is the byte offset of the header's 32-bit sequence
	// field, for tools that rewrite it in encoded messages.
	SeqOffset     int
	TemplateSetID uint16
	// SeqCountsRecords says the sequence number counts data records
	// (IPFIX) rather than messages (v9).
	SeqCountsRecords bool
	// Template is the layout the dialect's exporter announces:
	// FlowFields, then any fields of the dialect's own, which every
	// record fills with the same bytes, RecordTail.
	Template   Template
	RecordTail []byte
	// ParseHeader validates the fixed header and returns its fields
	// and the sets that follow it.
	ParseHeader func(msg []byte) (Header, []byte, error)
	// PutHeader fills in the first HeaderLen bytes of a finished
	// message carrying count template and data records.
	PutHeader func(msg []byte, h Header, count int)
}

const (
	setHeaderLen = 4
	minDataSetID = 256
)

// learned is a cached template: the announcement as it arrived, for
// comparing the next one against, and what was parsed from it once.
type learned struct {
	spec   string // (type, length) pairs, 4 bytes each
	fields []FieldSpec
	recLen int // sum of the field lengths, > 0
}

// Collector parses one dialect's messages, keeping a template cache
// per (source, template ID) and a sequence anchor per source. Feed and
// FeedInto are not safe for concurrent use, but Dropped and Gaps are
// atomics so a metrics reader may load them while another goroutine
// feeds.
type Collector struct {
	d         *Dialect
	templates map[uint64]learned
	lastSeq   map[uint32]uint32
	// Dropped counts data sets skipped because their template has not
	// been seen (possible over UDP; RFC 3954 §10), and templates
	// rejected because their records would be zero bytes long.
	Dropped atomic.Uint64
	// Gaps counts messages whose sequence number did not match the
	// expected continuation (lost or reordered transport).
	Gaps atomic.Uint64
}

// NewCollector returns an empty collector for dialect d.
func NewCollector(d *Dialect) *Collector {
	return &Collector{d: d, templates: make(map[uint64]learned), lastSeq: make(map[uint32]uint32)}
}

// Feed parses one message and returns its records in a fresh slice,
// allocating per call. Hot callers hold a reusable flow.Batch and call
// FeedInto.
func (c *Collector) Feed(msg []byte) ([]flow.Record, error) {
	var b flow.Batch
	err := c.FeedInto(msg, &b)
	return b.Records(), err
}

// FeedInto parses one message, appending every decoded record to b.
// The batch's prior contents are preserved, and records decoded
// before a mid-message error remain appended — callers that need
// all-or-nothing semantics can Truncate back to the pre-call length.
// With a warmed batch and a stable template, FeedInto performs zero
// steady-state allocations per message.
//
// haystack:hotpath — runs once per message; error construction lives
// in outlined cold helpers.
func (c *Collector) FeedInto(msg []byte, b *flow.Batch) error {
	h, rest, err := c.d.ParseHeader(msg)
	if err != nil {
		return err
	}
	hour := simtime.Hour(int64(h.ExportTime) / 3600)
	want, anchored := c.lastSeq[h.Source]

	// The expected continuation is seq+1 in v9 and seq plus this
	// message's record count in IPFIX. Either is only trusted when the
	// whole message decodes: a data set dropped for lack of a template
	// carries an unknown number of records and usually means the
	// exporter restarted, which also resets its sequence counter, and
	// a message that errors mid-parse is equally suspect. Counting
	// those as gaps would report phantom loss and desynchronize
	// accounting for the rest of the stream, so both the gap check and
	// the anchor wait until the message is known clean; otherwise
	// tracking is dropped and the next clean message re-anchors it.
	start := b.Len()
	clean := true
	for len(rest) >= setHeaderLen {
		setID := binary.BigEndian.Uint16(rest[0:2])
		setLen := int(binary.BigEndian.Uint16(rest[2:4]))
		if setLen < setHeaderLen || setLen > len(rest) {
			delete(c.lastSeq, h.Source)
			return c.errSetOverrun(setLen, len(rest))
		}
		body := rest[setHeaderLen:setLen]
		switch {
		case setID == c.d.TemplateSetID:
			if err := c.learnTemplates(h.Source, body); err != nil {
				delete(c.lastSeq, h.Source)
				return err
			}
		case setID >= minDataSetID:
			if !c.decodeSet(h.Source, setID, body, hour, b) {
				clean = false
			}
		}
		rest = rest[setLen:]
	}
	if !clean {
		delete(c.lastSeq, h.Source)
		return nil
	}
	if anchored && h.Seq != want {
		c.Gaps.Add(1)
	}
	next := h.Seq + 1
	if c.d.SeqCountsRecords {
		// What was appended past the contents the caller handed in.
		next = h.Seq + uint32(b.Len()-start)
	}
	c.lastSeq[h.Source] = next
	return nil
}

func templateKey(source uint32, id uint16) uint64 { return uint64(source)<<16 | uint64(id) }

// learnTemplates caches every template record in one template set.
func (c *Collector) learnTemplates(source uint32, body []byte) error {
	for len(body) >= 4 {
		id := binary.BigEndian.Uint16(body[0:2])
		n := int(binary.BigEndian.Uint16(body[2:4]))
		if len(body)-4 < n*4 {
			return fmt.Errorf("%s: truncated template %d", c.d.Name, id)
		}
		spec := body[4 : 4+n*4]
		body = body[4+n*4:]
		// Exporters re-announce templates periodically (RFC 3954 §9);
		// one that matches the cached layout must not allocate.
		key := templateKey(source, id)
		if t, ok := c.templates[key]; ok && t.spec == string(spec) {
			continue
		}
		t := learned{spec: string(spec), fields: make([]FieldSpec, n)}
		for i := range t.fields {
			t.fields[i] = FieldSpec{
				Type:   binary.BigEndian.Uint16(spec[i*4:]),
				Length: binary.BigEndian.Uint16(spec[i*4+2:]),
			}
			t.recLen += int(t.fields[i].Length)
		}
		if t.recLen == 0 {
			// No data set can be cut into zero-byte records; without
			// the template its data sets are dropped like any other.
			delete(c.templates, key)
			c.Dropped.Add(1)
			continue
		}
		c.templates[key] = t
	}
	return nil
}

// decodeSet decodes one data set into the caller's arena. It reports
// false when the set's template is unknown, which leaves the message's
// record count, and so its sequence continuation, untrusted.
//
// haystack:hotpath — runs once per data set, looping per record.
func (c *Collector) decodeSet(source uint32, setID uint16, body []byte, hour simtime.Hour, b *flow.Batch) bool {
	t, ok := c.templates[templateKey(source, setID)]
	if !ok {
		c.Dropped.Add(1)
		return false
	}
	recLen := t.recLen
	for len(body) >= recLen {
		rec := b.Append()
		rec.Hour = hour
		// Walk the record by slicing the front off a view of it, so
		// every access is guarded by the view's remaining length —
		// sum(field lengths) == recLen makes the guard dead code, but
		// the decoder stays safe (and provably in bounds) even if a
		// template ever lied.
		fields := body[:recLen]
		for _, f := range t.fields {
			n := int(f.Length)
			if n > len(fields) {
				break
			}
			fb := fields[:n]
			fields = fields[n:]
			switch f.Type {
			case FieldIPv4SrcAddr:
				if len(fb) == 4 {
					rec.Key.Src = netip.AddrFrom4([4]byte(fb))
				}
			case FieldIPv4DstAddr:
				if len(fb) == 4 {
					rec.Key.Dst = netip.AddrFrom4([4]byte(fb))
				}
			case FieldL4SrcPort:
				rec.Key.SrcPort = uint16(beUint(fb))
			case FieldL4DstPort:
				rec.Key.DstPort = uint16(beUint(fb))
			case FieldProtocol:
				rec.Key.Proto = flow.Proto(beUint(fb))
			case FieldTCPFlags:
				rec.TCPFlags = uint8(beUint(fb))
			case FieldInPkts:
				rec.Packets = beUint(fb)
			case FieldInBytes:
				rec.Bytes = beUint(fb)
			}
		}
		body = body[recLen:]
	}
	// A remainder shorter than one record is set padding (RFC 7011
	// §3.3.1), so the record count is exact.
	return true
}

// errSetOverrun is outlined so the hot path stays fmt-free.
func (c *Collector) errSetOverrun(setLen, remaining int) error {
	return fmt.Errorf("%s: set length %d exceeds remaining %d", c.d.Name, setLen, remaining)
}

// beUint decodes a big-endian unsigned integer of any width.
//
// haystack:hotpath — runs several times per record.
func beUint(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

// Exporter packages flow records into one dialect's messages, laid out
// by the dialect's Template. Not safe for concurrent use.
type Exporter struct {
	d      *Dialect
	source uint32
	// TemplateEvery controls template refresh: a template set is
	// included in the first message and then every TemplateEvery-th
	// message (RFC 3954 §9 requires periodic resends over UDP).
	TemplateEvery int

	seq      uint32
	messages int
}

// NewExporter returns an exporter for one observation point, sending a
// template in every 20th message.
func NewExporter(d *Dialect, source uint32) *Exporter {
	return &Exporter{d: d, source: source, TemplateEvery: 20}
}

// Export encodes records into one or more messages of at most
// maxRecords data records each. Each message is its own allocation;
// send paths that reuse one buffer should drive AppendMessage instead.
func (e *Exporter) Export(records []flow.Record, maxRecords int) ([][]byte, error) {
	var msgs [][]byte
	for len(records) > 0 {
		msg, n, err := e.AppendMessage(nil, records, maxRecords)
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, msg)
		records = records[n:]
	}
	return msgs, nil
}

// AppendMessage encodes the next message — at most maxRecords of
// records, 30 if maxRecords is not positive — into buf's spare
// capacity and returns the extended buffer plus how many records it
// consumed. Callers loop, slicing consumed records off and resetting
// buf to buf[:0] between messages, so a sustained send path reuses one
// encode buffer instead of allocating per message (Export's behavior).
// On error buf is returned unchanged.
func (e *Exporter) AppendMessage(buf []byte, records []flow.Record, maxRecords int) ([]byte, int, error) {
	if maxRecords <= 0 {
		maxRecords = 30
	}
	records = records[:min(maxRecords, len(records))]
	d, t := e.d, e.d.Template

	// All records in one message share the hour of the first, carried
	// in the header's export time; the simulator flushes tables hourly.
	h := Header{Seq: e.seq, Source: e.source}
	if len(records) > 0 {
		h.ExportTime = uint32(records[0].Hour.Time().Unix())
	}
	count, size := len(records), d.HeaderLen
	withTemplate := e.messages == 0 || (e.TemplateEvery > 0 && e.messages%e.TemplateEvery == 0)
	if withTemplate {
		count++ // template records count toward a v9 header's count
		size += 2*setHeaderLen + 4*len(t.Fields)
	}
	body := setHeaderLen + (flowFieldsLen+len(d.RecordTail))*len(records)
	pad := (4 - body%4) % 4 // sets end on a 4-byte boundary (RFC 7011 §3.3.1)
	if size += body + pad; size > 0xffff {
		return buf, 0, fmt.Errorf("%s: message length %d exceeds 65535", d.Name, size)
	}

	start := len(buf) // header fields are relative to this message alone
	msg := append(slices.Grow(buf, size), make([]byte, d.HeaderLen)...)
	if withTemplate {
		msg = binary.BigEndian.AppendUint16(msg, d.TemplateSetID)
		msg = binary.BigEndian.AppendUint16(msg, uint16(2*setHeaderLen+4*len(t.Fields)))
		msg = binary.BigEndian.AppendUint16(msg, t.ID)
		msg = binary.BigEndian.AppendUint16(msg, uint16(len(t.Fields)))
		for _, f := range t.Fields {
			msg = binary.BigEndian.AppendUint16(msg, f.Type)
			msg = binary.BigEndian.AppendUint16(msg, f.Length)
		}
	}
	msg = binary.BigEndian.AppendUint16(msg, t.ID)
	msg = binary.BigEndian.AppendUint16(msg, uint16(body+pad))
	for i := range records {
		r := &records[i]
		if !r.Key.Src.Is4() || !r.Key.Dst.Is4() {
			return buf, 0, fmt.Errorf("%s: record %v is not IPv4", d.Name, r.Key)
		}
		msg = append(appendRecord(msg, r), d.RecordTail...)
	}
	msg = append(msg, make([]byte, pad)...)
	d.PutHeader(msg[start:], h, count)

	e.messages++
	if d.SeqCountsRecords {
		e.seq += uint32(len(records))
	} else {
		e.seq++
	}
	return msg, len(records), nil
}

// appendRecord encodes r as FlowFields lays it out. Counters saturate
// at their 32-bit field width.
func appendRecord(buf []byte, r *flow.Record) []byte {
	src, dst := r.Key.Src.As4(), r.Key.Dst.As4()
	buf = append(buf, src[:]...)
	buf = append(buf, dst[:]...)
	buf = binary.BigEndian.AppendUint16(buf, r.Key.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, r.Key.DstPort)
	buf = append(buf, uint8(r.Key.Proto), r.TCPFlags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(min(r.Packets, 0xffffffff)))
	return binary.BigEndian.AppendUint32(buf, uint32(min(r.Bytes, 0xffffffff)))
}
