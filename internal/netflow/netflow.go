// Package netflow is the Cisco NetFlow v9 (RFC 3954) dialect of the
// flow-export codec in internal/flowwire, used by the ISP vantage
// point. It holds only what v9 does differently from IPFIX: a 20-byte
// header with a record count and an uptime but no length, template
// FlowSets under ID 0, a sequence number that counts export packets,
// and a template that carries the flow's switched times.
package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/flowwire"
)

// Version is the NetFlow export format version implemented here.
const Version = 9

// NetFlow v9 field types (RFC 3954 §8).
const (
	FieldInBytes       = flowwire.FieldInBytes
	FieldInPkts        = flowwire.FieldInPkts
	FieldProtocol      = flowwire.FieldProtocol
	FieldTCPFlags      = flowwire.FieldTCPFlags
	FieldL4SrcPort     = flowwire.FieldL4SrcPort
	FieldIPv4SrcAddr   = flowwire.FieldIPv4SrcAddr
	FieldL4DstPort     = flowwire.FieldL4DstPort
	FieldIPv4DstAddr   = flowwire.FieldIPv4DstAddr
	FieldLastSwitched  = 21
	FieldFirstSwitched = 22
)

// FlowTemplate is the canonical template used by the simulated ISP's
// border routers: the shared flow fields, then when the flow was
// switched.
var FlowTemplate = flowwire.Template{
	ID: 256,
	Fields: append(slices.Clip(flowwire.FlowFields),
		flowwire.FieldSpec{Type: FieldFirstSwitched, Length: 4},
		flowwire.FieldSpec{Type: FieldLastSwitched, Length: 4}),
}

// switchedTimes fills those two fields in every record: uptime
// milliseconds at the two ends of the record's hour bin, 0 and 3,599,999.
var switchedTimes = binary.BigEndian.AppendUint32(make([]byte, 4), 3_599_999)

const (
	headerLen = 20
	seqOffset = 12
)

// Dialect is NetFlow v9's framing.
var Dialect = flowwire.Dialect{
	Name:          "netflow",
	HeaderLen:     headerLen,
	SeqOffset:     seqOffset,
	TemplateSetID: 0,
	Template:      FlowTemplate,
	RecordTail:    switchedTimes,
	ParseHeader:   parseHeader,
	PutHeader:     putHeader,
}

// Collector parses NetFlow v9 messages; see flowwire.Collector.
type Collector = flowwire.Collector

// NewCollector returns an empty collector.
func NewCollector() *Collector { return flowwire.NewCollector(&Dialect) }

// Exporter packages flow records into NetFlow v9 messages; see
// flowwire.Exporter.
type Exporter = flowwire.Exporter

// NewExporter returns an exporter for one observation point.
func NewExporter(sourceID uint32) *Exporter { return flowwire.NewExporter(&Dialect, sourceID) }

// Errors returned by the collector.
var (
	ErrShortMessage = errors.New("netflow: short message")
	ErrBadVersion   = errors.New("netflow: unexpected version")
)

// parseHeader reads the v9 packet header (RFC 3954 §5.1). The count at
// bytes 2–4 is not needed: FlowSets carry their own lengths.
//
// haystack:hotpath — runs once per datagram.
func parseHeader(msg []byte) (flowwire.Header, []byte, error) {
	if len(msg) < headerLen {
		return flowwire.Header{}, nil, ErrShortMessage
	}
	if v := binary.BigEndian.Uint16(msg[0:2]); v != Version {
		return flowwire.Header{}, nil, errBadVersion(v)
	}
	return flowwire.Header{
		ExportTime: binary.BigEndian.Uint32(msg[8:12]),
		Seq:        binary.BigEndian.Uint32(msg[seqOffset : seqOffset+4]),
		Source:     binary.BigEndian.Uint32(msg[16:20]),
	}, msg[headerLen:], nil
}

func putHeader(msg []byte, h flowwire.Header, count int) {
	binary.BigEndian.PutUint16(msg[0:2], Version)
	binary.BigEndian.PutUint16(msg[2:4], uint16(count))
	binary.BigEndian.PutUint32(msg[4:8], 3_600_000) // SysUptime: end of the hour bin
	binary.BigEndian.PutUint32(msg[8:12], h.ExportTime)
	binary.BigEndian.PutUint32(msg[seqOffset:seqOffset+4], h.Seq)
	binary.BigEndian.PutUint32(msg[16:20], h.Source)
}

// errBadVersion is outlined so parseHeader stays fmt-free.
func errBadVersion(v uint16) error { return fmt.Errorf("%w: %d", ErrBadVersion, v) }
