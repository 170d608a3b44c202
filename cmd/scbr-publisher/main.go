// Command scbr-publisher runs a service provider: it attests the
// router's enclave, provisions the symmetric key SK, serves client
// subscription admission, and (optionally) publishes a synthetic
// stock-quote feed from the Table 1 workload generator.
//
// Usage:
//
//	scbr-publisher -router 127.0.0.1:7070 -trust router-trust.json \
//	    -listen 127.0.0.1:7071 -key publisher-key.json \
//	    -feed e80a1 -count 1000 -interval 100ms [-batch 1] \
//	    [-scheme sgx-plain|aspe] [-scheme-attrs a,b,c] [-scheme-seed 0]
//
// With -batch > 1 the feed sends that many quotes per frame through
// PublishBatch.
//
// -scheme selects the matching scheme (must match the router's
// -scheme). The aspe scheme needs a fixed attribute universe:
// -scheme-attrs lists it explicitly, defaulting to the quote-corpus
// attributes of the selected -feed workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"scbr"
	"scbr/internal/deploy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scbr-publisher:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		routerAddr = flag.String("router", "127.0.0.1:7070", "router address")
		trustPath  = flag.String("trust", "router-trust.json", "router trust bundle")
		listen     = flag.String("listen", "127.0.0.1:7071", "client admission address")
		keyPath    = flag.String("key", "publisher-key.json", "path to write the publisher public key")
		feed       = flag.String("feed", "", "publish a synthetic feed from this Table 1 workload (e.g. e80a1)")
		count      = flag.Int("count", 0, "number of feed publications (0 = unlimited)")
		interval   = flag.Duration("interval", 200*time.Millisecond, "delay between feed rounds")
		batch      = flag.Int("batch", 1, "publications per frame (PublishBatch when > 1)")
		seed       = flag.Int64("seed", 1, "feed generator seed")
		schemeName = flag.String("scheme", scbr.SchemePlain, "matching scheme to encode under (sgx-plain or aspe; must match the router's -scheme)")
		schemeAttr = flag.String("scheme-attrs", "", "comma-separated attribute universe for schemes that need one (default: the -feed workload's quote attributes)")
		schemeSeed = flag.Int64("scheme-seed", 0, "deterministic seed for the scheme's secret material (0 = random)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bundle, err := deploy.LoadTrustBundle(*trustPath)
	if err != nil {
		return err
	}
	svc, identity, err := bundle.Service()
	if err != nil {
		return err
	}
	schemeOpts, err := schemeOptions(*schemeName, *schemeAttr, *feed, *schemeSeed)
	if err != nil {
		return err
	}
	pub, err := scbr.NewPublisher(svc, identity, scbr.WithScheme(*schemeName, schemeOpts...))
	if err != nil {
		return err
	}
	log.Printf("encoding under matching scheme %s", pub.Scheme())
	conn, err := net.Dial("tcp", *routerAddr)
	if err != nil {
		return fmt.Errorf("dialing router: %w", err)
	}
	if err := pub.ConnectRouter(ctx, conn); err != nil {
		return fmt.Errorf("attesting router: %w", err)
	}
	log.Printf("router enclave attested; SK provisioned")
	if err := deploy.SavePublisherKey(*keyPath, pub.PublicKey()); err != nil {
		return err
	}
	log.Printf("publisher key written to %s", *keyPath)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	log.Printf("admitting clients on %s", ln.Addr())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				pub.ServeClient(ctx, c)
			}()
		}
	}()

	if *feed != "" {
		if err := runFeed(ctx, pub, *feed, *count, *interval, *batch, *seed); err != nil {
			_ = ln.Close()
			wg.Wait()
			return err
		}
	} else {
		<-ctx.Done()
	}
	log.Printf("shutting down")
	_ = ln.Close()
	_ = conn.Close()
	wg.Wait()
	return nil
}

// schemeOptions assembles the scheme codec options: an explicit
// -scheme-attrs universe wins; otherwise schemes that need one get the
// quote attributes of the selected feed workload (suffixed per its
// attribute factor).
func schemeOptions(schemeName, attrCSV, feed string, seed int64) ([]scbr.SchemeOption, error) {
	var opts []scbr.SchemeOption
	if seed != 0 {
		opts = append(opts, scbr.WithSchemeSeed(seed))
	}
	if attrCSV != "" {
		var names []string
		for _, a := range strings.Split(attrCSV, ",") {
			if a = strings.TrimSpace(a); a != "" {
				names = append(names, a)
			}
		}
		return append(opts, scbr.WithSchemeAttrs(names...)), nil
	}
	caps, err := scbr.LookupScheme(schemeName)
	if err != nil {
		return nil, err
	}
	// Schemes with sealed plaintext exchange have no fixed universe;
	// only supply the default one where a universe is meaningful.
	if caps.SealedExchange {
		return opts, nil
	}
	factor := 1
	if feed != "" {
		wl, err := scbr.WorkloadByName(feed)
		if err != nil {
			return nil, err
		}
		factor = wl.AttrFactor
	}
	return append(opts, scbr.WithSchemeAttrs(scbr.QuoteAttrs(factor)...)), nil
}

// runFeed publishes synthetic quotes until count is reached or ctx is
// cancelled. With batch > 1 it sends that many quotes per frame.
func runFeed(ctx context.Context, pub *scbr.Publisher, name string, count int, interval time.Duration, batch int, seed int64) error {
	wl, err := scbr.WorkloadByName(name)
	if err != nil {
		return err
	}
	qs, err := scbr.NewQuoteSet(seed, 100, 200)
	if err != nil {
		return err
	}
	gen, err := scbr.NewWorkloadGenerator(wl, qs, seed)
	if err != nil {
		return err
	}
	if batch < 1 {
		batch = 1
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	published := 0
	for count == 0 || published < count {
		select {
		case <-ctx.Done():
			log.Printf("feed interrupted after %d publications", published)
			return nil
		case <-ticker.C:
		}
		round := batch
		if count > 0 && published+round > count {
			round = count - published
		}
		events := make([]scbr.Event, 0, round)
		for i := 0; i < round; i++ {
			header := gen.Publication()
			payload, err := json.Marshal(header.Attrs)
			if err != nil {
				return err
			}
			events = append(events, scbr.Event{Header: header, Payload: payload})
		}
		if len(events) == 1 {
			err = pub.Publish(ctx, events[0].Header, events[0].Payload)
		} else {
			err = pub.PublishBatch(ctx, events)
		}
		if errors.Is(err, context.Canceled) {
			// The interrupt landed mid-publish: same graceful exit as
			// a cancel caught by the select above.
			log.Printf("feed interrupted after %d publications", published)
			return nil
		}
		if err != nil {
			return fmt.Errorf("publishing: %w", err)
		}
		published += len(events)
		if published%100 == 0 {
			log.Printf("published %d quotes (group epoch %d)", published, pub.GroupEpoch())
		}
	}
	// Publish returns once a frame is queued: write the last burst
	// before the caller closes the connection under it.
	if err := pub.Flush(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("flushing the feed: %w", err)
	}
	log.Printf("feed complete: %d publications", published)
	return nil
}
