// Package ipfix is the IPFIX (RFC 7011) dialect of the flow-export
// codec in internal/flowwire, used by the IXP vantage point. It holds
// only what IPFIX does differently from NetFlow v9: a 16-byte header
// with an explicit message length, template sets under ID 2, and a
// sequence number that counts data records rather than messages.
package ipfix

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/flowwire"
)

// Version is the IPFIX protocol version (RFC 7011 §3.1).
const Version = 10

// Information element IDs (IANA, same numbering as NetFlow v9 fields).
const (
	IEOctetDeltaCount    = flowwire.FieldInBytes
	IEPacketDeltaCount   = flowwire.FieldInPkts
	IEProtocolIdentifier = flowwire.FieldProtocol
	IETCPControlBits     = flowwire.FieldTCPFlags
	IESourcePort         = flowwire.FieldL4SrcPort
	IESourceIPv4Address  = flowwire.FieldIPv4SrcAddr
	IEDestinationPort    = flowwire.FieldL4DstPort
	IEDestinationIPv4    = flowwire.FieldIPv4DstAddr
)

// FlowTemplate is the canonical template used by the simulated IXP
// switching fabric: the shared flow fields and nothing else.
var FlowTemplate = flowwire.Template{ID: 300, Fields: flowwire.FlowFields}

const (
	headerLen     = 16
	seqOffset     = 8
	templateSetID = 2
)

// Dialect is IPFIX's framing.
var Dialect = flowwire.Dialect{
	Name:             "ipfix",
	HeaderLen:        headerLen,
	SeqOffset:        seqOffset,
	TemplateSetID:    templateSetID,
	SeqCountsRecords: true, // RFC 7011 §3.1
	Template:         FlowTemplate,
	ParseHeader:      parseHeader,
	PutHeader:        putHeader,
}

// Collector parses IPFIX messages; see flowwire.Collector.
type Collector = flowwire.Collector

// NewCollector returns an empty collector.
func NewCollector() *Collector { return flowwire.NewCollector(&Dialect) }

// Exporter packages flow records into IPFIX messages; see
// flowwire.Exporter.
type Exporter = flowwire.Exporter

// NewExporter returns an exporter for one observation domain.
func NewExporter(domainID uint32) *Exporter { return flowwire.NewExporter(&Dialect, domainID) }

// Errors returned by the collector.
var (
	ErrShortMessage = errors.New("ipfix: short message")
	ErrBadVersion   = errors.New("ipfix: unexpected version")
	ErrBadLength    = errors.New("ipfix: bad message length")
)

// parseHeader reads the IPFIX message header (RFC 7011 §3.1). Sets are
// read up to the header's length, not the buffer's.
//
// haystack:hotpath — runs once per message.
func parseHeader(msg []byte) (flowwire.Header, []byte, error) {
	if len(msg) < headerLen {
		return flowwire.Header{}, nil, ErrShortMessage
	}
	if v := binary.BigEndian.Uint16(msg[0:2]); v != Version {
		return flowwire.Header{}, nil, errBadVersion(v)
	}
	length := int(binary.BigEndian.Uint16(msg[2:4]))
	if length < headerLen || length > len(msg) {
		return flowwire.Header{}, nil, errBadLength(length, len(msg))
	}
	return flowwire.Header{
		ExportTime: binary.BigEndian.Uint32(msg[4:8]),
		Seq:        binary.BigEndian.Uint32(msg[seqOffset : seqOffset+4]),
		Source:     binary.BigEndian.Uint32(msg[12:16]),
	}, msg[headerLen:length], nil
}

func putHeader(msg []byte, h flowwire.Header, _ int) {
	binary.BigEndian.PutUint16(msg[0:2], Version)
	binary.BigEndian.PutUint16(msg[2:4], uint16(len(msg)))
	binary.BigEndian.PutUint32(msg[4:8], h.ExportTime)
	binary.BigEndian.PutUint32(msg[seqOffset:seqOffset+4], h.Seq)
	binary.BigEndian.PutUint32(msg[12:16], h.Source)
}

// Cold-path error constructors, outlined so parseHeader stays fmt-free.
func errBadVersion(v uint16) error { return fmt.Errorf("%w: %d", ErrBadVersion, v) }

func errBadLength(length, have int) error {
	return fmt.Errorf("%w: header says %d, have %d", ErrBadLength, length, have)
}
