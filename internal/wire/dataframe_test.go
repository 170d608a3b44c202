package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// sampleFrames covers each data-frame layout and its edge shapes.
func sampleFrames() []DataFrame {
	return []DataFrame{
		{Tag: TagPublish, Scheme: "sgx-plain", Epoch: 3, Blob: []byte("header"), Payload: []byte("payload")},
		{Tag: TagPublish}, // every field empty
		{Tag: TagPublish, Scheme: "aspe", Epoch: math.MaxUint64, Blob: bytes.Repeat([]byte{0xA5}, 300)},
		{Tag: TagPublishBatch, Scheme: "sgx-plain", Epoch: 1},
		{Tag: TagPublishBatch, Epoch: 2, Items: []Item{{Blob: []byte("h0"), Payload: []byte("p0")}, {}, {Payload: bytes.Repeat([]byte{1}, 1024)}}},
		{Tag: TagDeliver, Epoch: 1, Cursor: 1, Payload: []byte("p")},
		{Tag: TagDeliver, Epoch: 9, Cursor: math.MaxUint64, SubIDs: []uint64{7}},
		{Tag: TagDeliver, Cursor: 300, SubIDs: []uint64{0, 1, 1 << 56, math.MaxUint64}, Payload: []byte{}},
		{Tag: TagFwdPub, Blob: []byte("sealed overlay frame")},
		{Tag: TagFwdPub},
		{Tag: TagRegister, ClientID: "alice", Scheme: "sgx-plain", MAC: bytes.Repeat([]byte{0x5A}, 32), Items: []Item{{Blob: []byte("sub0")}, {}, {Blob: bytes.Repeat([]byte{2}, 300)}}},
		{Tag: TagRegister}, // no items, no identity: the router refuses it, the codec does not
		{Tag: TagRegisterOK, SubIDs: []uint64{1 << 56, 1<<56 | 1, math.MaxUint64}},
		{Tag: TagRegisterOK},
	}
}

// normalize maps the empty slices an encoder accepts onto the nil
// ones the decoder produces, so frames compare with DeepEqual.
func normalize(f DataFrame) DataFrame {
	if len(f.Blob) == 0 {
		f.Blob = nil
	}
	if len(f.Payload) == 0 {
		f.Payload = nil
	}
	if len(f.SubIDs) == 0 {
		f.SubIDs = nil
	}
	if len(f.MAC) == 0 {
		f.MAC = nil
	}
	f.Items = append([]Item(nil), f.Items...) // the caller keeps its items
	for i := range f.Items {
		if len(f.Items[i].Blob) == 0 {
			f.Items[i].Blob = nil
		}
		if len(f.Items[i].Payload) == 0 {
			f.Items[i].Payload = nil
		}
	}
	return f
}

func mustEncode(t testing.TB, f *DataFrame) []byte {
	t.Helper()
	body, err := AppendDataFrame(nil, f)
	if err != nil {
		t.Fatalf("encoding %+v: %v", f, err)
	}
	return body
}

// checkValidFrame holds a body that decoded to f to the codec's
// contract: it is a data frame, it re-encodes to a body that decodes
// to the same frame, and every proper prefix of that body is an error
// — a truncated frame never decodes to something shorter.
func checkValidFrame(t *testing.T, f *DataFrame) {
	t.Helper()
	body := mustEncode(t, f)
	if !IsDataFrame(body) {
		t.Fatalf("encoded frame %x is not recognised as a data frame", body[:1])
	}
	var back DataFrame
	if err := DecodeDataFrame(body, &back); err != nil {
		t.Fatalf("re-encoded frame does not decode: %v", err)
	}
	if !reflect.DeepEqual(back, normalize(*f)) {
		t.Fatalf("round trip diverged:\n in  %+v\n out %+v", normalize(*f), back)
	}
	for cut := 0; cut < len(body); cut++ {
		var trunc DataFrame
		if err := DecodeDataFrame(body[:cut], &trunc); !errors.Is(err, ErrDataFrame) {
			t.Fatalf("frame cut at %d of %d bytes: err = %v, want ErrDataFrame", cut, len(body), err)
		}
	}
	if err := DecodeDataFrame(append(body[:len(body):len(body)], 0), &back); !errors.Is(err, ErrDataFrame) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		checkValidFrame(t, &f)
	}
}

// TestDataFrameViews: decoded byte fields alias the frame (no copies)
// and are capped, so appending to one cannot overwrite its neighbour.
func TestDataFrameViews(t *testing.T) {
	in := DataFrame{Tag: TagPublish, Scheme: "s", Blob: []byte("head"), Payload: []byte("tail")}
	body := mustEncode(t, &in)
	var f DataFrame
	if err := DecodeDataFrame(body, &f); err != nil {
		t.Fatal(err)
	}
	body[bytes.Index(body, []byte("head"))] = 'H'
	if string(f.Blob) != "Head" {
		t.Fatalf("Blob %q is a copy, want a view of the frame", f.Blob)
	}
	_ = append(f.Blob, "XXXX"...)
	if string(f.Payload) != "tail" {
		t.Fatalf("appending to Blob overwrote Payload: %q", f.Payload)
	}
}

func TestDataFrameRejectsMalformed(t *testing.T) {
	for name, body := range map[string][]byte{
		"empty":                   {},
		"unknown tag":             {0x07, 0},
		"control frame":           []byte(`{"type":"listen"}`),
		"blob length past end":    {TagFwdPub, 5, 'a', 'b'},
		"huge blob length":        {TagFwdPub, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"overlong uvarint":        {TagPublish, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"item count past end":     {TagPublishBatch, 0, 0, 200, 1, 0, 0},
		"huge item count":         {TagPublishBatch, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"sub-id count past end":   {TagDeliver, 0, 0, 9, 1, 2, 0},
		"missing deliver payload": {TagDeliver, 1, 1, 1, 7},
		"huge register count":     {TagRegister, 1, 'a', 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 'x'},
		"register count past end": {TagRegister, 1, 'a', 0, 0, 3, 1, 'x', 0},
		"truncated register tag":  {TagRegister, 1, 'a', 0, 32, 0x5A, 0x5A, 0x5A},
		"register trailing bytes": {TagRegister, 1, 'a', 0, 1, 0x5A, 1, 1, 'x', 0},
		"huge register-ok count":  {TagRegisterOK, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 7},
		"register-ok trailing":    {TagRegisterOK, 1, 7, 7},
	} {
		var f DataFrame
		if err := DecodeDataFrame(body, &f); !errors.Is(err, ErrDataFrame) {
			t.Errorf("%s: err = %v, want ErrDataFrame", name, err)
		}
		if !reflect.DeepEqual(f, DataFrame{}) {
			t.Errorf("%s: a failed decode left fields behind: %+v", name, f)
		}
	}
	if _, err := AppendDataFrame(nil, &DataFrame{Tag: '{'}); !errors.Is(err, ErrDataFrame) {
		t.Fatalf("encoding the control-frame byte as a tag: %v", err)
	}
}

// FuzzDataFrameDecode: arbitrary bytes never panic the decoder, and
// whatever it accepts is a frame in full standing — it re-encodes,
// round-trips, and every truncation of it is an error. The corpus
// starts from the framing and scheme-tagged-frame fuzzers' seeds plus
// one valid body per layout.
func FuzzDataFrameDecode(f *testing.F) {
	f.Add([]byte(`{"type":"provision","scheme":"aspe"}`))
	f.Add([]byte(`{"type":"register"}`))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xA5}, 1024))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 0, 0, 0, '{', '}', '!', '!'})
	for _, frame := range sampleFrames() {
		f.Add(mustEncode(f, &frame))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var frame DataFrame
		if err := DecodeDataFrame(body, &frame); err != nil {
			if !errors.Is(err, ErrDataFrame) {
				t.Fatalf("decode error outside the taxonomy: %v", err)
			}
			return
		}
		checkValidFrame(t, &frame)
	})
}

// FuzzDataFrameRoundTrip builds frames of every layout from fuzzed
// field values and sends them through the codec inside real framing:
// what went in comes out, and back-to-back frames do not bleed.
func FuzzDataFrameRoundTrip(f *testing.F) {
	f.Add(uint8(0), "aspe", uint64(3), uint64(0), bytes.Repeat([]byte{7}, 64), []byte(nil), uint8(0))
	f.Add(uint8(1), "sgx-plain", uint64(1), uint64(0), []byte{0xA5, 1, 2}, []byte("sig"), uint8(3))
	f.Add(uint8(2), "", uint64(math.MaxUint64), uint64(math.MaxUint64), []byte(nil), bytes.Repeat([]byte{0xA5}, 1024), uint8(200))
	f.Add(uint8(3), "", uint64(0), uint64(9), []byte{0}, []byte{}, uint8(1))
	f.Add(uint8(4), "sgx-plain", uint64(0), uint64(0), bytes.Repeat([]byte{9}, 48), []byte("alice"), uint8(32))
	// The smallest envelope, an empty plaintext's nonce and tag; the
	// 48-byte seed above is the smallest of the older CTR+HMAC layout.
	f.Add(uint8(4), "sgx-plain", uint64(0), uint64(0), bytes.Repeat([]byte{9}, 32), []byte("alice"), uint8(32))
	f.Add(uint8(5), "", uint64(1)<<56, uint64(3), []byte(nil), []byte(nil), uint8(32))
	f.Fuzz(func(t *testing.T, kind uint8, scheme string, epoch, cursor uint64, blob, payload []byte, n uint8) {
		var in DataFrame
		switch kind % 6 {
		case 0:
			in = DataFrame{Tag: TagPublish, Scheme: scheme, Epoch: epoch, Blob: blob, Payload: payload}
		case 1:
			in = DataFrame{Tag: TagPublishBatch, Scheme: scheme, Epoch: epoch}
			for i := 0; i < int(n); i++ {
				// Vary the items: rotate which of the two fields is empty.
				item := Item{Blob: blob, Payload: payload}
				if i%3 == 1 {
					item.Blob = nil
				} else if i%3 == 2 {
					item.Payload = nil
				}
				in.Items = append(in.Items, item)
			}
		case 2:
			in = DataFrame{Tag: TagDeliver, Epoch: epoch, Cursor: cursor, Payload: payload}
			for i := 0; i < int(n); i++ {
				in.SubIDs = append(in.SubIDs, cursor+uint64(i)*epoch)
			}
		case 3:
			in = DataFrame{Tag: TagFwdPub, Blob: blob}
		case 4:
			in = DataFrame{Tag: TagRegister, ClientID: string(payload), Scheme: scheme, MAC: payload}
			for i := 0; i < int(n); i++ {
				item := Item{Blob: blob} // a register item's Payload does not travel
				if i%2 == 1 {
					item.Blob = nil
				}
				in.Items = append(in.Items, item)
			}
		case 5:
			in = DataFrame{Tag: TagRegisterOK}
			for i := 0; i < int(n); i++ {
				in.SubIDs = append(in.SubIDs, epoch|cursor+uint64(i))
			}
		}
		var stream bytes.Buffer
		for i := 0; i < 2; i++ {
			if err := WriteFrame(&stream, mustEncode(t, &in)); err != nil {
				return // only a frame past MaxFrame is refused
			}
		}
		for i := 0; i < 2; i++ {
			body, err := ReadFrame(&stream)
			if err != nil {
				t.Fatalf("reading frame %d: %v", i, err)
			}
			var out DataFrame
			if err := DecodeDataFrame(body, &out); err != nil {
				t.Fatalf("decoding frame %d: %v", i, err)
			}
			if !reflect.DeepEqual(out, normalize(in)) {
				t.Fatalf("frame %d diverged:\n in  %+v\n out %+v", i, normalize(in), out)
			}
		}
	})
}
