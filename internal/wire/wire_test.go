package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		nil,
		{},
		[]byte("a"),
		bytes.Repeat([]byte("xyz"), 10000),
	}
	for _, p := range payloads {
		buf.Reset()
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("round trip mismatch for %d bytes", len(p))
		}
	}
}

func TestFrameRoundTripQuick(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize write: %v", err)
	}
	// A forged oversize header must be rejected before allocation.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize header: %v", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Cut inside the body.
	if _, err := ReadFrame(bytes.NewReader(raw[:7])); err == nil {
		t.Fatal("truncated body accepted")
	}
	// Cut inside the header.
	if _, err := ReadFrame(bytes.NewReader(raw[:2])); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Clean EOF at a frame boundary surfaces as io.EOF.
	if _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestFramesOverSocket(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		_ = WriteFrame(client, []byte("first"))
		_ = WriteFrame(client, []byte("second"))
	}()
	a, err := ReadFrame(server)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadFrame(server)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != "first" || string(b) != "second" {
		t.Fatalf("got %q, %q", a, b)
	}
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("seed payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, err := ReadFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// A decoded frame must re-frame to the identical bytes consumed.
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), raw[:out.Len()]) {
			t.Fatal("re-framed bytes differ from input prefix")
		}
	})
}

// oneWrite fails the test if a frame arrives in more than one Write.
type oneWrite struct {
	bytes.Buffer
	writes int
}

func (w *oneWrite) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameIsOneWrite: prefix and body leave together — on a
// TCP_NODELAY socket two Writes are two syscalls and two segments.
func TestWriteFrameIsOneWrite(t *testing.T) {
	var w oneWrite
	if err := WriteFrame(&w, []byte("one frame, one write")); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("frame took %d writes, want 1", w.writes)
	}
}

// TestBeginEndFrame: frames built in place, back to back in one
// buffer, read back as the same frames.
func TestBeginEndFrame(t *testing.T) {
	bodies := [][]byte{[]byte("first"), nil, bytes.Repeat([]byte{7}, 300)}
	var buf []byte
	for _, body := range bodies {
		start := len(buf)
		buf = append(BeginFrame(buf), body...)
		if err := EndFrame(buf, start); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf)
	for i, body := range bodies {
		got, err := ReadFrame(r)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("frame %d: %q, %v", i, got, err)
		}
	}
	start := len(buf)
	buf = append(BeginFrame(buf), make([]byte, MaxFrame+1)...)
	if err := EndFrame(buf, start); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize in-place frame: %v", err)
	}
}

// TestReadFrameGrowsWithBytesReceived is the hostile-frame guard: a
// header may claim MaxFrame, but the reader allocates only as body
// bytes arrive — four bytes must not pin 16 MiB per connection.
func TestReadFrameGrowsWithBytesReceived(t *testing.T) {
	hdr := []byte{0, 0, 0, 1} // 16 MiB, little-endian
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 16 MiB header followed by EOF was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Fatalf("a 4-byte claim of 16 MiB allocated %d bytes, want < 128 KiB", got)
	}
	// A body a little over the first chunks still arrives whole, and a
	// caller-supplied buffer with room is used as is.
	body := make([]byte, 5*readChunk+17)
	for i := range body {
		body[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	got, err := ReadFrame(bytes.NewReader(raw))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("chunked read: %d bytes, %v", len(got), err)
	}
	reuse := make([]byte, 0, len(body))
	got, err = ReadFrameAppend(bytes.NewReader(raw), reuse)
	if err != nil || !bytes.Equal(got, body) || &got[0] != &reuse[:1][0] {
		t.Fatalf("reused buffer: %d bytes, %v, same storage %v", len(got), err, err == nil && &got[0] == &reuse[:1][0])
	}
}
