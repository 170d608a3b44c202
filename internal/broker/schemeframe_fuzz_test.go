package broker

import (
	"bytes"
	"encoding/json"
	"testing"

	"scbr/internal/scheme"
)

// FuzzSchemeTaggedFrame round-trips scheme-tagged protocol frames —
// the provisioning, registration, publication, and listen messages
// whose Scheme field the router's mismatch checks read — through the
// full Send/Recv path (a JSON body for control types, the binary
// data-frame codec for publications and registrations, inside
// length-prefixed wire frames). The scheme tag, blobs, identities and
// registration tag must survive byte-identically: the mismatch check
// and the registration tag check both depend on it.
func FuzzSchemeTaggedFrame(f *testing.F) {
	f.Add(string(TypeProvision), "sgx-plain", "", []byte(nil), []byte(nil), uint64(0))
	f.Add(string(TypeRegisterBatch), "aspe", "alice", []byte{0xA5, 1, 2}, bytes.Repeat([]byte{0x5A}, 32), uint64(0))
	f.Add(string(TypePublish), "aspe", "", bytes.Repeat([]byte{7}, 64), []byte(nil), uint64(3))
	f.Add(string(TypeListen), "", "carol", []byte(nil), []byte(nil), uint64(9))
	f.Add(string(TypeRegisterBatchOK), "", "", []byte(nil), []byte(nil), uint64(0))
	f.Fuzz(func(t *testing.T, typ, schemeTag, clientID string, blob, tag []byte, epoch uint64) {
		in := &Message{
			Type:     MsgType(typ),
			Scheme:   schemeTag,
			ClientID: clientID,
			Blob:     blob,
			Tag:      tag,
			Epoch:    epoch,
			Items:    []BatchItem{{Blob: blob}},
		}
		var buf bytes.Buffer
		if err := Send(&buf, in); err != nil {
			// Some fuzz strings are not valid JSON text (invalid UTF-8
			// is re-coded by encoding/json); an encode refusal is fine,
			// a mangled round trip below is not.
			return
		}
		out, err := Recv(&buf)
		if err != nil {
			t.Fatalf("sent frame does not parse back: %v", err)
		}
		if _, data := dataTag(in.Type); data {
			// A data frame carries its layout's fields as raw bytes — no
			// text coercion — and nothing else.
			want := &Message{Type: in.Type}
			switch in.Type {
			case TypePublish:
				want.Scheme, want.Epoch, want.Blob = in.Scheme, in.Epoch, in.Blob
			case TypePublishBatch:
				want.Scheme, want.Epoch, want.Items = in.Scheme, in.Epoch, in.Items
			case TypeDeliver:
				want.Epoch = in.Epoch
			case TypeFwdPub:
				want.Blob = in.Blob
			case TypeRegisterBatch:
				want.ClientID, want.Scheme, want.Tag, want.Items = in.ClientID, in.Scheme, in.Tag, in.Items
			}
			if !sameMessage(out, want) {
				t.Fatalf("data frame diverged from its layout's fields:\n out  %+v\n want %+v", out, want)
			}
			return
		}
		// encoding/json coerces invalid UTF-8 in strings, so compare
		// against the normal form: what the sent JSON parses back to.
		inJSON, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var norm Message
		if err := json.Unmarshal(inJSON, &norm); err != nil {
			t.Fatalf("sent body is not valid JSON: %v", err)
		}
		if out.Type != norm.Type || out.Scheme != norm.Scheme || out.ClientID != norm.ClientID {
			t.Fatalf("tagged fields diverged: %+v vs %+v", out, norm)
		}
		if !bytes.Equal(out.Blob, in.Blob) || !bytes.Equal(out.Tag, in.Tag) || out.Epoch != in.Epoch {
			t.Fatalf("payload fields diverged: %+v vs %+v", out, in)
		}
		// Blobs must be byte-stable regardless of string coercion: the
		// registration tag covers them.
		if tag := scheme.Canonical(out.Scheme); schemeTag == "" && tag != scheme.Plain {
			t.Fatalf("empty tag canonicalised to %q", tag)
		}
	})
}

// FuzzRecvRobustness feeds arbitrary bytes to the frame reader: it
// must reject or parse, never panic, and anything it parses must obey
// the frame bound.
func FuzzRecvRobustness(f *testing.F) {
	var buf bytes.Buffer
	_ = Send(&buf, &Message{Type: TypeProvision, Scheme: "aspe"})
	f.Add(buf.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 0, 0, 0, '{', '}', '!', '!'})
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := Recv(bytes.NewReader(raw))
		if err == nil && m == nil {
			t.Fatal("nil message without error")
		}
	})
}
