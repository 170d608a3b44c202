// Lowlatency: what a publication costs at the enclave border with and
// without switchless transitions (the paper's §6 "message exchanges at
// the enclave border"), and with batching on top.
//
// By default the router charges one EENTER/EEXIT round trip (~2 µs on
// the paper's hardware) per enclave entry per slice, and a slice's
// worker enters once for every message already queued when it wakes,
// up to 64 events. The publisher queues each frame and returns, and
// one flusher writes whatever is queued in one write, so a burst's
// frames reach the router several to a read. A burst of single
// publishes therefore coalesces under the per-ecall price: it costs
// one transition per drained group, anywhere from one per publication
// (an idle router that keeps up) to one per 64 (a worker that falls
// behind), as the scheduler decides. With WithSwitchless each slice's
// resident worker is charged one entry for its lifetime and then only
// a poll of its untrusted queue per message, so a burst of quotes
// costs zero per-message transitions. PublishBatch amortises by
// construction: a whole batch is one frame and at most one enclave
// crossing even at the per-ecall price. The pipeline is the same in all three; this example
// runs one burst through each and prints the enclave transition counts
// and simulated enclave time per publication.
//
// Run with:
//
//	go run ./examples/lowlatency
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"scbr"
)

const (
	burst     = 2000
	batchSize = 100
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// stack is one complete deployment: device, router, publisher, one
// subscribed client.
type stack struct {
	router    *scbr.Router
	publisher *scbr.Publisher
	sub       *scbr.Subscription
	close     func()
}

func deploy(ctx context.Context, name string, opts ...scbr.Option) (*stack, error) {
	dev, err := scbr.NewDevice(nil)
	if err != nil {
		return nil, err
	}
	quoter, err := scbr.NewQuoter(dev, name+"-platform")
	if err != nil {
		return nil, err
	}
	signer, err := scbr.NewKeyPair(nil)
	if err != nil {
		return nil, err
	}
	// The bursts below publish everything before the subscriber drains
	// a single delivery, so size the per-client delivery queue for a
	// whole burst — the router's slow-consumer policy would otherwise
	// disconnect the (deliberately lazy) subscriber mid-burst.
	opts = append(opts, scbr.WithDeliveryQueue(burst))
	router, err := scbr.NewRouter(dev, quoter, []byte(name+" router image"), signer.Public(), opts...)
	if err != nil {
		return nil, err
	}
	routerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = router.Serve(ctx, routerLn)
	}()

	ias := scbr.NewAttestationService()
	ias.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
	publisher, err := scbr.NewPublisher(ias, router.Identity())
	if err != nil {
		return nil, err
	}
	rc, err := net.Dial("tcp", routerLn.Addr().String())
	if err != nil {
		return nil, err
	}
	if err := publisher.ConnectRouter(ctx, rc); err != nil {
		return nil, fmt.Errorf("attestation failed: %w", err)
	}

	pubLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := pubLn.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				publisher.ServeClient(ctx, c)
			}()
		}
	}()

	client, err := scbr.NewClient(name + "-trader")
	if err != nil {
		return nil, err
	}
	pc, err := net.Dial("tcp", pubLn.Addr().String())
	if err != nil {
		return nil, err
	}
	client.ConnectPublisher(pc, publisher.PublicKey())
	lc, err := net.Dial("tcp", routerLn.Addr().String())
	if err != nil {
		return nil, err
	}
	if err := client.Attach(ctx, lc); err != nil {
		return nil, err
	}
	spec, err := scbr.ParseSpec(`symbol = "HAL", price < 50`)
	if err != nil {
		return nil, err
	}
	sub, err := client.Subscribe(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &stack{
		router:    router,
		publisher: publisher,
		sub:       sub,
		close: func() {
			client.Close()
			_ = pubLn.Close()
			router.Close()
			wg.Wait()
		},
	}, nil
}

func tick(i int) scbr.Event {
	return scbr.Event{
		Header: scbr.EventSpec{Attrs: []scbr.NamedValue{
			{Name: "symbol", Value: scbr.Str("HAL")},
			{Name: "price", Value: scbr.Float(40 + float64(i%10))},
			{Name: "volume", Value: scbr.Int(int64(1000 + i))},
		}},
		Payload: []byte(fmt.Sprintf("tick %d", i)),
	}
}

// runBurst publishes the burst (optionally batched) and waits for all
// deliveries, returning the enclave-transition and simulated-cycle
// deltas.
func runBurst(ctx context.Context, s *stack, batch int) (transitions, cycles uint64, wall time.Duration, err error) {
	before := s.router.MeterSnapshot()
	start := time.Now()
	if batch <= 1 {
		for i := 0; i < burst; i++ {
			ev := tick(i)
			if err := s.publisher.Publish(ctx, ev.Header, ev.Payload); err != nil {
				return 0, 0, 0, err
			}
		}
	} else {
		for i := 0; i < burst; i += batch {
			events := make([]scbr.Event, 0, batch)
			for j := i; j < i+batch && j < burst; j++ {
				events = append(events, tick(j))
			}
			if err := s.publisher.PublishBatch(ctx, events); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	for i := 0; i < burst; i++ {
		d, err := s.sub.Next(ctx)
		if err != nil {
			return 0, 0, 0, err
		}
		if d.Err != nil {
			return 0, 0, 0, d.Err
		}
	}
	wall = time.Since(start)
	delta := s.router.MeterSnapshot().Sub(before)
	return delta.Transitions, delta.Cycles, wall, nil
}

func run() error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cost := scbr.DefaultCostModel()
	fmt.Printf("publishing a burst of %d encrypted quotes through each router\n\n", burst)
	fmt.Println("  mode            transitions   enclave simµs/pub   wall time")
	for _, mode := range []struct {
		name  string
		batch int
		opts  []scbr.Option
	}{
		{"per-ecall", 1, nil},
		{"batched", batchSize, nil},
		{"switchless", 1, []scbr.Option{scbr.WithSwitchless()}},
	} {
		s, err := deploy(ctx, mode.name, mode.opts...)
		if err != nil {
			return fmt.Errorf("%s deployment: %w", mode.name, err)
		}
		transitions, cycles, wall, err := runBurst(ctx, s, mode.batch)
		s.close()
		if err != nil {
			return fmt.Errorf("%s burst: %w", mode.name, err)
		}
		fmt.Printf("  %-15s %11d %19.2f %11s\n",
			mode.name, transitions, cost.Micros(cycles)/burst, wall.Round(time.Millisecond))
	}
	fmt.Println("\ndone: batching amortises the ecall, switchless transitions eliminate it")
	return nil
}
