// Package wireref is a deliberately naive decoder for one NetFlow v9
// or IPFIX message: the reference that the fuzz targets of
// internal/netflow and internal/ipfix hold internal/flowwire to. It
// shares no code with the codec and none of its techniques — no
// template cache kept between messages, no arena, no shrinking slice
// views, only absolute offsets into the message with an explicit
// bounds check before each read.
package wireref

import (
	"net/netip"

	"repro/internal/flow"
	"repro/internal/simtime"
)

// Format is the framing of one export format, spelled out in numbers
// rather than taken from the codec's dialects.
type Format struct {
	Version     int
	HeaderLen   int
	TimeAt      int  // offset of the 32-bit export time
	HasLength   bool // bytes 2–4 hold the message length (IPFIX)
	TemplateSet int  // set ID that carries templates
}

// Decode parses msg the way a collector that has seen nothing else
// must: it returns the records decoded, including those decoded before
// a fault, and whether the whole message was well formed.
func Decode(f Format, msg []byte) ([]flow.Record, bool) {
	u16 := func(at int) int { return int(msg[at])<<8 | int(msg[at+1]) }
	if len(msg) < f.HeaderLen || u16(0) != f.Version {
		return nil, false
	}
	end := len(msg)
	if f.HasLength {
		if end = u16(2); end < f.HeaderLen || end > len(msg) {
			return nil, false
		}
	}
	hour := simtime.Hour((u16(f.TimeAt)<<16 | u16(f.TimeAt+2)) / 3600)

	type field struct{ typ, length int }
	templates := map[int][]field{}
	var recs []flow.Record
	for at := f.HeaderLen; at+4 <= end; {
		id, setEnd := u16(at), at+u16(at+2)
		if setEnd < at+4 || setEnd > end {
			return recs, false
		}
		if id == f.TemplateSet {
			for p := at + 4; p+4 <= setEnd; {
				tid, n := u16(p), u16(p+2)
				if p += 4; p+4*n > setEnd {
					return recs, false
				}
				var fields []field
				recLen := 0
				for ; n > 0; n, p = n-1, p+4 {
					fields = append(fields, field{u16(p), u16(p + 2)})
					recLen += u16(p + 2)
				}
				if delete(templates, tid); recLen > 0 {
					templates[tid] = fields
				}
			}
		} else if fields, ok := templates[id]; ok && id >= 256 {
			recLen := 0
			for _, fl := range fields {
				recLen += fl.length
			}
			for p := at + 4; p+recLen <= setEnd; {
				rec := flow.Record{Hour: hour}
				for _, fl := range fields {
					var v uint64
					for i := 0; i < fl.length; i++ {
						v = v<<8 | uint64(msg[p+i])
					}
					switch fl.typ {
					case 8, 12: // IPv4 source, destination address
						if fl.length != 4 {
							break
						}
						a := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
						if fl.typ == 8 {
							rec.Key.Src = a
						} else {
							rec.Key.Dst = a
						}
					case 7:
						rec.Key.SrcPort = uint16(v)
					case 11:
						rec.Key.DstPort = uint16(v)
					case 4:
						rec.Key.Proto = flow.Proto(v)
					case 6:
						rec.TCPFlags = uint8(v)
					case 2:
						rec.Packets = v
					case 1:
						rec.Bytes = v
					}
					p += fl.length
				}
				recs = append(recs, rec)
			}
		}
		at = setEnd
	}
	return recs, true
}
