// Span recording for the traced run. Spans are recorded from the
// harness's own files, around its calls into each layer; they are kept
// in memory and written out when the run ends.

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spanKind names what a span timed: "<module>.<call>".
type spanKind uint8

const (
	spPublication spanKind = iota // walk: one publish call, root of its spans
	spEncodeEvent
	spSealHeader
	spSealPayload
	spSendPublish
	spRecvPublish
	spFrameRoundtrip
	spEcallMatch   // an enclave entry on the publication path
	spEcallControl // an enclave entry for a registration or removal
	spRingPushPop
	spOpenHeader
	spMatch
	spMatchBare
	spRegister
	spUnregister
	spSendDeliver
	spRecvDeliver
	spOpenPayload
	spLivePublish // live pass: Publisher.Publish / PublishBatch
	spLiveNext    // live pass: Subscription.Next
	spLiveRegisterBulk
	spLiveUnsubscribe
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spPublication:      "walk.publication",
	spEncodeEvent:      "scheme.Codec.EncodeEvent",
	spSealHeader:       "scrypto.Seal(header)",
	spSealPayload:      "scrypto.Seal(payload)",
	spSendPublish:      "broker.Send(publish)",
	spRecvPublish:      "broker.Recv(publish)",
	spFrameRoundtrip:   "wire.WriteFrame+ReadFrameAppend",
	spEcallMatch:       "sgx.Enclave.Ecall(match)",
	spEcallControl:     "sgx.Enclave.Ecall(register/remove)",
	spRegister:         "streamhub.Hub.RegisterEncodedAt",
	spUnregister:       "streamhub.Hub.UnregisterIn",
	spRingPushPop:      "sgx.Ring.Push+Pop",
	spOpenHeader:       "scrypto.Opener.OpenAppend",
	spMatch:            "streamhub.Hub.MatchEncodedBatchIn",
	spMatchBare:        "streamhub.Hub.MatchEncodedBatchIn(bare arena)",
	spSendDeliver:      "broker.Send(deliver)",
	spRecvDeliver:      "broker.Recv(deliver)",
	spOpenPayload:      "scrypto.Open(payload)",
	spLivePublish:      "broker.Publisher.Publish",
	spLiveNext:         "broker.Subscription.Next",
	spLiveRegisterBulk: "broker.Publisher.RegisterBulk",
	spLiveUnsubscribe:  "broker.Client.Unsubscribe",
}

// span is one timed call. parent is the index+1 of the causing span in
// the same buffer (0 for none); req is the sequence number of the first
// event the call carried, so spans of one publication share it.
type span struct {
	kind       spanKind
	parent     int32
	req        uint64
	start, end int64
}

// spanBuf is one goroutine's span log; no locking, one writer.
type spanBuf struct{ spans []span }

// add records a span and returns its handle for use as a parent.
func (b *spanBuf) add(kind spanKind, parent int32, req uint64, start, end int64) int32 {
	b.spans = append(b.spans, span{kind: kind, parent: parent, req: req, start: start, end: end})
	return int32(len(b.spans))
}

// open reserves a span whose end is filled by close.
func (b *spanBuf) open(kind spanKind, parent int32, req uint64) int32 {
	return b.add(kind, parent, req, nanos(), 0)
}

func (b *spanBuf) close(h int32) { b.spans[h-1].end = nanos() }

// total sums the durations of one kind.
func (b *spanBuf) total(kind spanKind) (sum int64, n int) {
	for i := range b.spans {
		if s := &b.spans[i]; s.kind == kind {
			sum += s.end - s.start
			n++
		}
	}
	return
}

// self sums the self time of one kind: each span's duration minus the
// part its direct children cover.
func (b *spanBuf) self(kind spanKind) (sum int64, n int) {
	for i := range b.spans {
		s := &b.spans[i]
		if s.kind == kind {
			sum += s.end - s.start
			n++
		}
		if s.parent != 0 && b.spans[s.parent-1].kind == kind {
			sum -= s.end - s.start
		}
	}
	return
}

// routerPoll is one 100 ms reading of the router's exported snapshots
// during the live pass.
type routerPoll struct {
	AtNs            int64          `json:"at_ns"`
	Cycles          uint64         `json:"cycles"`
	SliceCycles     []uint64       `json:"slice_cycles"`
	Transitions     uint64         `json:"transitions"`
	Enqueued        uint64         `json:"enqueued"`
	Dropped         uint64         `json:"deliveries_dropped"`
	PauseStalls     uint64         `json:"pause_stalls"`
	EnqueueWriteP50 int64          `json:"enqueue_write_p50_ns"`
	EnqueueWriteP99 int64          `json:"enqueue_write_p99_ns"`
	QueueDepths     map[string]int `json:"queue_depths"`
	SliceStoreBytes []uint64       `json:"slice_store_bytes"`
	SliceResident   []uint64       `json:"slice_resident_bytes"`
}

// traceFile is the on-disk form: spans as compact rows
// [name index, id, parent id, req, start_ns, end_ns]. A span's self
// time is its duration minus the part its children cover.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Host      hostInfo           `json:"host"`
	SpanNames []string           `json:"span_names"`
	Columns   []string           `json:"span_columns"`
	Spans     [][6]int64         `json:"spans"`
	Polls     []routerPoll       `json:"router_polls"`
	Metrics   map[string]float64 `json:"metrics"`
}

// writeTrace merges the span buffers and writes the file. The live
// pass's Next spans are recorded on the consuming goroutine, which
// cannot know which publish call caused them; that parent is resolved
// here, from the sequence numbers the publish spans cover.
func writeTrace(path string, tf *traceFile, walk, livePub, liveCon *spanBuf) error {
	tf.SpanNames = spanNames[:]
	tf.Columns = []string{"name", "id", "parent", "req", "start_ns", "end_ns"}
	var offset int64
	emit := func(b *spanBuf, parentOf func(s *span) int64) {
		for i := range b.spans {
			s := &b.spans[i]
			parent := int64(0)
			if s.parent != 0 {
				parent = offset + int64(s.parent)
			} else if parentOf != nil {
				parent = parentOf(s)
			}
			tf.Spans = append(tf.Spans, [6]int64{int64(s.kind), offset + int64(i) + 1, parent, int64(s.req), s.start, s.end})
		}
		offset += int64(len(b.spans))
	}
	emit(walk, nil)
	pubOffset := offset
	emit(livePub, nil)
	// Publish spans are in sequence order; find the last one starting
	// at or before the delivery's sequence number.
	var calls []int
	for i := range livePub.spans {
		if livePub.spans[i].kind == spLivePublish {
			calls = append(calls, i)
		}
	}
	emit(liveCon, func(s *span) int64 {
		if s.kind != spLiveNext || len(calls) == 0 {
			return 0
		}
		k := sort.Search(len(calls), func(k int) bool { return livePub.spans[calls[k]].req > s.req })
		if k == 0 {
			return 0
		}
		return pubOffset + int64(calls[k-1]) + 1
	})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, raw, 0o644)
}
