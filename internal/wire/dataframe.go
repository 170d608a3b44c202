package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Data-frame tags: the first byte of a data frame's body. '{' (0x7B)
// is never a tag — it opens a JSON control frame.
//
// Layouts (body, after the 4-byte prefix). uv is a uvarint; bytes is
// uv length followed by that many raw bytes; str is bytes holding
// text:
//
//	publish:        0x01 | uv epoch | str scheme | bytes header | bytes payload
//	publish-batch:  0x02 | uv epoch | str scheme | uv n | n × (bytes header | bytes payload)
//	deliver:        0x03 | uv epoch | uv cursor | uv n | n × uv sub-id | bytes payload
//	fwd-pub:        0x04 | bytes sealed-overlay-frame
//	register-batch: 0x05 | str client | str scheme | bytes tag | uv n | n × bytes blob
//	register-ok:    0x06 | uv n | n × uv sub-id
//
// A frame must be consumed exactly: trailing bytes are an error, as is
// any length that runs past the frame's end.
const (
	TagPublish      byte = 0x01
	TagPublishBatch byte = 0x02
	TagDeliver      byte = 0x03
	TagFwdPub       byte = 0x04
	TagRegister     byte = 0x05
	TagRegisterOK   byte = 0x06
)

// ErrDataFrame is returned for a data frame that is truncated, carries
// a length past its end, trailing bytes, or an unknown tag.
var ErrDataFrame = errors.New("wire: malformed data frame")

// Item is one item of a batch frame: a publish-batch item's routable
// header blob and group-key payload, or a register-batch item's
// subscription blob (its Payload does not travel).
type Item struct {
	Blob    []byte
	Payload []byte
}

// DataFrame is the decoded form of the six data frames; Tag says
// which, and only the fields of that frame's layout travel.
type DataFrame struct {
	Tag      byte
	ClientID string   // register-batch: the subscriptions' owner
	Scheme   string   // publish, publish-batch, register-batch: matching-scheme ID
	Epoch    uint64   // publish, publish-batch, deliver: group-key epoch
	Cursor   uint64   // deliver: per-client delivery sequence
	SubIDs   []uint64 // deliver: the client's matched subscriptions; register-ok: the issued IDs
	Blob     []byte   // publish: header; fwd-pub: the sealed overlay frame
	Payload  []byte   // publish, deliver
	MAC      []byte   // register-batch: the registration tag over the frame
	Items    []Item   // publish-batch, register-batch
}

// IsDataFrame reports whether a frame body is a data frame rather than
// a JSON control frame.
func IsDataFrame(body []byte) bool {
	return len(body) > 0 && body[0] != '{'
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendSubIDs(dst []byte, ids []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, id)
	}
	return dst
}

// AppendDataFrame appends f's body encoding to dst.
func AppendDataFrame(dst []byte, f *DataFrame) ([]byte, error) {
	dst = append(dst, f.Tag)
	switch f.Tag {
	case TagPublish:
		dst = binary.AppendUvarint(dst, f.Epoch)
		dst = appendString(dst, f.Scheme)
		dst = appendBytes(dst, f.Blob)
		dst = appendBytes(dst, f.Payload)
	case TagPublishBatch:
		dst = binary.AppendUvarint(dst, f.Epoch)
		dst = appendString(dst, f.Scheme)
		dst = binary.AppendUvarint(dst, uint64(len(f.Items)))
		for i := range f.Items {
			dst = appendBytes(dst, f.Items[i].Blob)
			dst = appendBytes(dst, f.Items[i].Payload)
		}
	case TagDeliver:
		dst = binary.AppendUvarint(dst, f.Epoch)
		dst = binary.AppendUvarint(dst, f.Cursor)
		dst = appendSubIDs(dst, f.SubIDs)
		dst = appendBytes(dst, f.Payload)
	case TagFwdPub:
		dst = appendBytes(dst, f.Blob)
	case TagRegister:
		dst = appendString(dst, f.ClientID)
		dst = appendString(dst, f.Scheme)
		dst = appendBytes(dst, f.MAC)
		dst = binary.AppendUvarint(dst, uint64(len(f.Items)))
		for i := range f.Items {
			dst = appendBytes(dst, f.Items[i].Blob)
		}
	case TagRegisterOK:
		dst = appendSubIDs(dst, f.SubIDs)
	default:
		return dst[:len(dst)-1], fmt.Errorf("%w: unknown tag %#x", ErrDataFrame, f.Tag)
	}
	return dst, nil
}

// reader walks a frame body; the first failed read latches err and
// every later read returns zero values.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrDataFrame, what)
	}
	r.b = nil
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong integer")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads an element count and checks it against what the rest of
// the frame could hold at minBytes per element, so a hostile count
// cannot size an allocation the frame's own bytes do not pay for.
func (r *reader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail("element count past the end of the frame")
		return 0
	}
	return int(n)
}

// subIDs reads a counted list of uvarint IDs (nil when empty).
func (r *reader) subIDs() []uint64 {
	n := r.count(1) // an ID is at least one byte
	if n == 0 {
		return nil
	}
	ids := make([]uint64, n)
	for i := 0; i < n && r.err == nil; i++ {
		ids[i] = r.uvarint()
	}
	return ids
}

// bytes returns a view of the frame (nil when empty), capped so an
// append to it cannot write into the bytes that follow.
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("length past the end of the frame")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// DecodeDataFrame decodes a data-frame body into f, overwriting every
// field. The []byte fields are views of body — no copies — so they
// live and die with the frame's allocation; empty fields decode to nil.
func DecodeDataFrame(body []byte, f *DataFrame) error {
	if len(body) == 0 {
		return fmt.Errorf("%w: empty frame", ErrDataFrame)
	}
	*f = DataFrame{Tag: body[0]}
	r := reader{b: body[1:]}
	switch f.Tag {
	case TagPublish:
		f.Epoch = r.uvarint()
		f.Scheme = string(r.bytes())
		f.Blob = r.bytes()
		f.Payload = r.bytes()
	case TagPublishBatch:
		f.Epoch = r.uvarint()
		f.Scheme = string(r.bytes())
		if n := r.count(2); n > 0 { // an item is at least two length bytes
			f.Items = make([]Item, n)
			for i := 0; i < n && r.err == nil; i++ {
				f.Items[i].Blob = r.bytes()
				f.Items[i].Payload = r.bytes()
			}
		}
	case TagDeliver:
		f.Epoch = r.uvarint()
		f.Cursor = r.uvarint()
		f.SubIDs = r.subIDs()
		f.Payload = r.bytes()
	case TagFwdPub:
		f.Blob = r.bytes()
	case TagRegister:
		f.ClientID = string(r.bytes())
		f.Scheme = string(r.bytes())
		f.MAC = r.bytes()
		if n := r.count(1); n > 0 { // an item is at least its length byte
			f.Items = make([]Item, n)
			for i := 0; i < n && r.err == nil; i++ {
				f.Items[i].Blob = r.bytes()
			}
		}
	case TagRegisterOK:
		f.SubIDs = r.subIDs()
	default:
		r.fail(fmt.Sprintf("unknown tag %#x", f.Tag))
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		*f = DataFrame{}
		return r.err
	}
	return nil
}
