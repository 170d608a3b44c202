package loadgen

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scbr/internal/broker"
	"scbr/internal/deploy"
	"scbr/internal/hdrhist"
	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
)

// Tunables the scenarios don't need to vary.
const (
	// deliveryQueueLen and replayRingLen are raised over the router
	// defaults so that scenario-scale bursts convert into resumable
	// replay (counted gaps) rather than early ring evictions.
	deliveryQueueLen = 1024
	replayRingLen    = 1024
	// attachTimeout bounds the initial all-listeners-attached barrier
	// and each churn cycle's reattach barrier.
	attachTimeout = 30 * time.Second
	// drainTimeout bounds the end-of-cell wait for every expected
	// event to be delivered or gap-reported.
	drainTimeout = 90 * time.Second
	// fedTimeout bounds federation digest propagation barriers.
	fedTimeout = 30 * time.Second
	// redialBackoff paces a listener's reconnect retries.
	redialBackoff = 5 * time.Millisecond
)

// fillerClientID owns the zipf population; it never attaches a
// delivery connection, so its matches exercise the engine without
// delivery fan-out (the router drops deliveries for clients that have
// never listened).
const fillerClientID = "loadgen-filler"

// Logf receives human-readable progress lines.
type Logf func(format string, args ...any)

// Run executes every cell of the scenario and assembles the artifact.
func Run(ctx context.Context, s *Scenario, logf Logf, commit string) (*Result, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Harness:   "scbr-loadgen",
		Version:   1,
		StartedAt: time.Now().UTC(),
		Host:      CaptureHost(commit),
		Scenario:  s,
	}
	start := time.Now()
	cells := s.Cells()
	for i, c := range cells {
		if c.Skip != "" {
			logf("cell %d/%d [p=%d %s routers=%d]: SKIPPED: %s", i+1, len(cells), c.Partitions, c.Scheme, c.Routers, c.Skip)
			res.Cells = append(res.Cells, CellResult{
				Partitions: c.Partitions, Scheme: c.Scheme, Routers: c.Routers,
				Scale: c.Scale, Skipped: c.Skip,
			})
			continue
		}
		logf("cell %d/%d [p=%d %s routers=%d]: %d subscribers, %d steady events (scale %.3g)",
			i+1, len(cells), c.Partitions, c.Scheme, c.Routers, c.Subscribers, c.Events, c.Scale)
		cr, err := runCell(ctx, s, c, logf)
		if err != nil {
			return nil, fmt.Errorf("loadgen: cell [p=%d %s routers=%d]: %w", c.Partitions, c.Scheme, c.Routers, err)
		}
		res.Cells = append(res.Cells, cr)
		logf("  done: publish %.3fs, drain %.3fs, e2e p50=%s p99=%s, delivered=%d gaps=%d unaccounted=%d",
			cr.PublishSecs, cr.DrainSecs, time.Duration(cr.EndToEnd.P50), time.Duration(cr.EndToEnd.P99),
			cr.Delivered, cr.Gaps, cr.Unaccounted)
	}
	res.WallSecs = time.Since(start).Seconds()
	return res, nil
}

// listener is one measured, resumable consumer and its accounting.
type listener struct {
	c    *broker.Client
	sub  *broker.Subscription
	home int

	mu   sync.Mutex
	conn net.Conn      // current delivery connection (manager-owned)
	hold chan struct{} // non-nil: churn wants the listener detached

	attachGen atomic.Int64 // successful Resume count (incl. first attach)
	gap       atomic.Uint64
	received  atomic.Uint64
	dups      atomic.Uint64
	errs      atomic.Uint64
}

// cellDriver carries one cell's live state.
type cellDriver struct {
	scenario  *Scenario
	cell      Cell
	topo      *deploy.Topology
	pub       *broker.Publisher
	listeners []*listener
	stream    *EventStream
	e2e       *hdrhist.Hist
	seq       uint64 // next global event sequence number
	total     int    // events the cell will publish end to end
}

func runCell(ctx context.Context, s *Scenario, c Cell, logf Logf) (CellResult, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	cr := CellResult{
		Partitions: c.Partitions, Scheme: c.Scheme, Routers: c.Routers,
		Scale: c.Scale, Subscribers: c.Subscribers, Measured: s.Measured,
	}
	overflow, err := broker.ParseOverflowPolicy(s.Overflow)
	if err != nil {
		return cr, err
	}

	var links [][2]int
	for i := 1; i < c.Routers; i++ {
		links = append(links, [2]int{i - 1, i})
	}
	spec := deploy.TopologySpec{
		Routers:       c.Routers,
		Links:         links,
		Scheme:        c.Scheme,
		SchemeOptions: s.SchemeOptions(),
		Mutate: func(i int, cfg *broker.RouterConfig) {
			if c.Partitions > 0 {
				cfg.Partitions = c.Partitions
			}
			cfg.OverflowPolicy = overflow
			cfg.DeliveryQueueLen = deliveryQueueLen
			cfg.ReplayRingLen = replayRingLen
		},
	}
	if c.Partitions == 0 {
		// Planner-sized cell: declare every router's expected load and
		// let deploy.Plan pick the slice counts from the scheme's
		// footprint model under the scenario's EPC budget.
		specs := make([]deploy.RouterSpec, c.Routers)
		for i := range specs {
			specs[i] = deploy.RouterSpec{EPCBudget: s.PlanEPCBudget, Subscriptions: c.Subscribers}
		}
		spec.RouterSpecs = specs
	}
	topo, err := deploy.NewTopology(cctx, spec)
	if err != nil {
		return cr, err
	}
	defer topo.Close()
	if topo.Plan != nil {
		cr.PlannedPartitions = topo.Plan.Routers[0].Partitions
		cr.PlanEPCBudget = s.PlanEPCBudget
		logf("  planner sized %d slices per router (budget %d MB, predicted %d bytes/router)",
			cr.PlannedPartitions, s.PlanEPCBudget>>20, topo.Plan.Routers[0].FootprintBytes)
	}

	pub, err := topo.NewPublisher(cctx, 0)
	if err != nil {
		return cr, err
	}
	stream, err := NewEventStream(s)
	if err != nil {
		return cr, err
	}
	d := &cellDriver{scenario: s, cell: c, topo: topo, pub: pub, stream: stream, e2e: hdrhist.New()}

	// Phase 1 — filler population, bulk-registered on the publish
	// router under a client that never listens.
	specs, err := Population(s, c.Subscribers)
	if err != nil {
		return cr, err
	}
	fillerKeys, err := scrypto.NewKeyPair(nil)
	if err != nil {
		return cr, err
	}
	if err := pub.Registry().Admit(fillerClientID, fillerKeys.Public()); err != nil {
		return cr, err
	}
	regStart := time.Now()
	if _, err := pub.RegisterBulk(cctx, fillerClientID, "", specs); err != nil {
		return cr, fmt.Errorf("registering population: %w", err)
	}
	cr.RegisterSecs = time.Since(regStart).Seconds()
	cr.RegisterPerSec = float64(c.Subscribers) / cr.RegisterSecs
	logf("  registered %d subscriptions in %.2fs (%.0f/s)", c.Subscribers, cr.RegisterSecs, cr.RegisterPerSec)

	// Phase 2 — measured listeners. On federated cells they home on
	// the far router so every delivery crosses the overlay.
	home := 0
	if c.Routers > 1 {
		home = c.Routers - 1
	}
	for j := 0; j < s.Measured; j++ {
		cl, err := broker.NewClient(fmt.Sprintf("measured-%d", j))
		if err != nil {
			return cr, err
		}
		defer cl.Close()
		if err := topo.BindClient(cctx, pub, cl, home); err != nil {
			return cr, err
		}
		sub, err := cl.Subscribe(cctx, MatchAllSpec())
		if err != nil {
			return cr, fmt.Errorf("subscribing measured-%d: %w", j, err)
		}
		st := &listener{c: cl, sub: sub, home: home}
		d.listeners = append(d.listeners, st)
	}

	// Phase 3 — plan total traffic so consumers can size their
	// dedup bitmaps up front.
	flash := 0
	if s.FlashEvents > 0 {
		flash = scaled(s.FlashEvents, c.Scale)
	}
	churnPer := 0
	if s.ChurnCycles > 0 {
		churnPer = scaled(s.churnEvents(), c.Scale)
	}
	repPer := 0
	if s.RepartitionCycles > 0 {
		repPer = scaled(s.repartitionEvents(), c.Scale)
	}
	d.total = c.Events + flash + s.ChurnCycles*churnPer + s.RepartitionCycles*repPer
	cr.Events = d.total
	cr.Expected = uint64(d.total) * uint64(s.Measured)

	var consumers sync.WaitGroup
	for _, st := range d.listeners {
		consumers.Add(1)
		go func(st *listener) { defer consumers.Done(); d.consume(cctx, st) }(st)
		go d.manage(cctx, st)
	}
	if err := d.waitAttached(cctx, 1); err != nil {
		return cr, err
	}
	if c.Routers > 1 {
		// Publications enter at router 0; wait until it has learned the
		// listeners' digests from across the overlay before publishing.
		if err := topo.WaitRemoteEntries(0, 1, fedTimeout); err != nil {
			return cr, err
		}
	}

	// Phase 4 — steady storm.
	pubStart := time.Now()
	if err := d.publishEvents(cctx, c.Events, s.BatchSize); err != nil {
		return cr, err
	}
	// Phase 5 — flash crowd: maximal batches, no pacing.
	if flash > 0 {
		if err := d.publishEvents(cctx, flash, 5*s.BatchSize); err != nil {
			return cr, err
		}
	}
	// Phase 5b — repartition churn: resize every router's matcher-slice
	// fleet online while a storm publishes into the live migration. The
	// delivery invariant (delivered + gaps == expected) holds across the
	// move or the cell reports unaccounted loss.
	for cycle := 0; cycle < s.RepartitionCycles; cycle++ {
		target := s.RepartitionTo[cycle%len(s.RepartitionTo)]
		pauses := make([]int64, len(topo.Routers))
		errc := make(chan error, len(topo.Routers))
		var rwg sync.WaitGroup
		for ri := range topo.Routers {
			rwg.Add(1)
			go func(ri int) {
				defer rwg.Done()
				snap, err := topo.Routers[ri].Repartition(cctx, target)
				if err != nil {
					errc <- fmt.Errorf("repartition cycle %d: router %d → %d slices: %w", cycle, ri, target, err)
					return
				}
				pauses[ri] = snap.LastPauseNanos
			}(ri)
		}
		pubErr := d.publishEvents(cctx, repPer, s.BatchSize)
		rwg.Wait()
		if pubErr != nil {
			return cr, pubErr
		}
		select {
		case err := <-errc:
			return cr, err
		default:
		}
		cr.Repartitions++
		for _, p := range pauses {
			if p > cr.MigrationPauseNanos {
				cr.MigrationPauseNanos = p
			}
		}
		logf("  repartitioned to %d slices (cycle %d, max pause %s)", target, cycle, time.Duration(maxInt64(pauses)))
	}
	// Phase 6 — reconnect churn: sever every listener, publish into
	// their absence, resume, and require the cursor protocol to account
	// for every event as a delivery or a reported gap.
	for cycle := 0; cycle < s.ChurnCycles; cycle++ {
		before := make([]int64, len(d.listeners))
		for j, st := range d.listeners {
			before[j] = st.attachGen.Load()
			d.detach(st)
		}
		if err := d.publishEvents(cctx, churnPer, s.BatchSize); err != nil {
			return cr, err
		}
		for _, st := range d.listeners {
			st.release()
		}
		if err := d.waitReattached(cctx, before); err != nil {
			return cr, fmt.Errorf("churn cycle %d: %w", cycle, err)
		}
	}
	cr.PublishSecs = time.Since(pubStart).Seconds()

	// Phase 7 — drain: every expected event must be delivered or
	// gap-reported; whatever is left is unaccounted (silent loss).
	d.drain(cctx)
	cr.DrainSecs = time.Since(pubStart).Seconds() - cr.PublishSecs
	cancel()
	consumers.Wait()

	for _, st := range d.listeners {
		cr.Delivered += st.received.Load()
		cr.Duplicates += st.dups.Load()
		cr.Gaps += st.gap.Load()
		cr.Resumes += int(st.attachGen.Load())
	}
	if got := cr.Delivered + cr.Gaps; got < cr.Expected {
		cr.Unaccounted = cr.Expected - got
	}
	cr.EndToEnd = summarize(d.e2e.Snapshot())
	lat := topo.Routers[home].DeliveryLatencySnapshot()
	cr.EnqueueWrite = LatencySummary{
		Count: lat.Total.Count, P50: lat.Total.P50, P95: lat.Total.P95,
		P99: lat.Total.P99, Max: lat.Total.Max,
	}
	cr.Counters = topo.Routers[home].DeliverySnapshot()
	return cr, nil
}

// publishEvents drives n events through PublishBatch across the
// scenario's publisher goroutines. Headers are pre-drawn from the
// deterministic stream; payloads are stamped at publish time so the
// end-to-end histogram measures live delivery.
func (d *cellDriver) publishEvents(ctx context.Context, n, batchSize int) error {
	if n <= 0 {
		return nil
	}
	headers := make([]pubsub.EventSpec, n)
	for i := range headers {
		headers[i] = d.stream.Next()
	}
	base := d.seq
	d.seq += uint64(n)

	type job struct {
		start int
		hdrs  []pubsub.EventSpec
	}
	jobs := make(chan job)
	workers := d.scenario.Publishers
	if workers > (n+batchSize-1)/batchSize {
		workers = (n + batchSize - 1) / batchSize
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				events := make([]broker.Event, len(j.hdrs))
				for i, h := range j.hdrs {
					events[i] = broker.Event{
						Header:  h,
						Payload: EncodePayload(base+uint64(j.start+i), time.Now().UnixNano()),
					}
				}
				if err := d.pub.PublishBatch(ctx, events); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}
	for off := 0; off < n; off += batchSize {
		end := off + batchSize
		if end > n {
			end = n
		}
		select {
		case jobs <- job{start: off, hdrs: headers[off:end]}:
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			return ctx.Err()
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errc:
		return fmt.Errorf("publishing: %w", err)
	default:
		return nil
	}
}

// consume drains one listener's subscription, deduplicating by
// sequence number and recording publish→receipt latency.
func (d *cellDriver) consume(ctx context.Context, st *listener) {
	seen := make([]bool, d.total)
	for {
		del, err := st.sub.Next(ctx)
		if err != nil {
			return
		}
		if del.Err != nil {
			st.errs.Add(1)
			continue
		}
		seq, stamp, err := DecodePayload(del.Payload)
		if err != nil || seq >= uint64(len(seen)) {
			st.errs.Add(1)
			continue
		}
		if seen[seq] {
			st.dups.Add(1)
			continue
		}
		seen[seq] = true
		st.received.Add(1)
		d.e2e.RecordDuration(time.Since(time.Unix(0, stamp)))
	}
}

// manage is a listener's reconnect loop — the mobile-client shape:
// wait for the delivery pump to die, honor a churn hold if one is
// posted, then redial and Resume, accumulating the reported gap.
func (d *cellDriver) manage(ctx context.Context, st *listener) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-st.c.DeliveryDone():
		}
		st.mu.Lock()
		hold := st.hold
		st.mu.Unlock()
		if hold != nil {
			select {
			case <-ctx.Done():
				return
			case <-hold:
			}
		}
		if ctx.Err() != nil {
			return
		}
		conn, err := d.topo.DialRouter(st.home)
		if err != nil {
			if !sleepCtx(ctx, redialBackoff) {
				return
			}
			continue
		}
		gap, err := st.c.Resume(ctx, conn)
		if err != nil {
			_ = conn.Close()
			if !sleepCtx(ctx, redialBackoff) {
				return
			}
			continue
		}
		st.gap.Add(gap)
		st.attachGen.Add(1)
		st.mu.Lock()
		st.conn = conn
		st.mu.Unlock()
	}
}

// detach posts a churn hold and severs the listener's delivery
// connection, returning once its pump has exited. The loop re-closes
// the current connection on a timer to cover the race where a Resume
// was in flight when the hold was posted.
func (d *cellDriver) detach(st *listener) {
	st.mu.Lock()
	st.hold = make(chan struct{})
	st.mu.Unlock()
	for {
		done := st.c.DeliveryDone()
		st.mu.Lock()
		conn := st.conn
		st.mu.Unlock()
		if conn != nil {
			_ = conn.Close()
		}
		select {
		case <-done:
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// release lifts a churn hold; the manager loop then resumes.
func (st *listener) release() {
	st.mu.Lock()
	hold := st.hold
	st.hold = nil
	st.mu.Unlock()
	if hold != nil {
		close(hold)
	}
}

// waitAttached blocks until every listener has resumed at least n
// times.
func (d *cellDriver) waitAttached(ctx context.Context, n int64) error {
	before := make([]int64, len(d.listeners))
	for j := range before {
		before[j] = n - 1
	}
	return d.waitReattached(ctx, before)
}

// waitReattached blocks until every listener's attach generation has
// advanced past its own baseline — per listener, because resumes are
// independent (a listener that weathered extra reconnects is ahead of
// its peers).
func (d *cellDriver) waitReattached(ctx context.Context, before []int64) error {
	deadline := time.Now().Add(attachTimeout)
	for {
		ready := true
		for j, st := range d.listeners {
			if st.attachGen.Load() <= before[j] {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("listeners did not all reattach within %v", attachTimeout)
		}
		if !sleepCtx(ctx, 5*time.Millisecond) {
			return ctx.Err()
		}
	}
}

// drain waits until every listener has accounted for every expected
// event (received + reported gap == total) or the drain timeout
// passes; the shortfall surfaces as CellResult.Unaccounted.
func (d *cellDriver) drain(ctx context.Context) {
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		done := true
		for _, st := range d.listeners {
			if st.received.Load()+st.gap.Load() < uint64(d.total) {
				done = false
				break
			}
		}
		if done {
			return
		}
		if !sleepCtx(ctx, 20*time.Millisecond) {
			return
		}
	}
}

// maxInt64 returns the largest element (0 for an empty slice).
func maxInt64(v []int64) int64 {
	var m int64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// sleepCtx sleeps d or until ctx is done, reporting whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
