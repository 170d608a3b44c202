// Package cmd_test drives the built scbr-router / scbr-publisher /
// scbr-subscriber binaries end to end over loopback TCP: trust-bundle
// hand-off, attestation, a workload feed, and filtered delivery.
package cmd_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// freePort reserves a loopback port.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

// waitListening polls until addr accepts connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			_ = conn.Close()
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never started listening", addr)
}

func waitFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never appeared", path)
}

// TestCLIFederation boots two scbr-router processes into an attested
// overlay (they exchange trust bundles through the filesystem, as a
// bootstrapping fleet would) and reads the link state off the metrics
// endpoint.
func TestCLIFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs two router binaries")
	}
	bin := t.TempDir()
	out, err := exec.Command("go", "build", "-o", filepath.Join(bin, "scbr-router"), "scbr/cmd/scbr-router").CombinedOutput()
	if err != nil {
		t.Fatalf("building scbr-router: %v\n%s", err, out)
	}
	work := t.TempDir()
	trustA := filepath.Join(work, "trust-a.json")
	trustB := filepath.Join(work, "trust-b.json")
	addrA := freePort(t)
	addrB := freePort(t)
	metricsA := freePort(t)

	start := func(args ...string) {
		cmd := exec.Command(filepath.Join(bin, "scbr-router"), args...)
		cmd.Dir = work
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting scbr-router: %v", err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		})
	}
	start("-listen", addrA, "-trust", trustA, "-platform", "cli-fed-a",
		"-router-id", "cli-a", "-peer-trust", trustB, "-metrics-addr", metricsA)
	start("-listen", addrB, "-trust", trustB, "-platform", "cli-fed-b",
		"-router-id", "cli-b", "-peer", addrA, "-peer-trust", trustA)

	waitListening(t, metricsA)
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + metricsA + "/metrics")
		if err == nil {
			var snapshot struct {
				DeliveryQueues map[string]int `json:"delivery_queues"`
				Latency        *struct {
					Total struct {
						Count uint64 `json:"count"`
					} `json:"total"`
				} `json:"latency"`
				Federation struct {
					Peers int `json:"peers"`
				} `json:"federation"`
			}
			err = json.NewDecoder(resp.Body).Decode(&snapshot)
			_ = resp.Body.Close()
			if err == nil && snapshot.Federation.Peers >= 1 {
				if snapshot.DeliveryQueues == nil {
					t.Fatal("metrics endpoint omitted delivery queue depths")
				}
				if snapshot.Latency == nil {
					t.Fatal("metrics endpoint omitted delivery latency percentiles")
				}
				return // attested link up, metrics readable
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("routers never reported an attested peer link on /metrics")
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// TestCLIDeployment drives router + publisher + subscriber end to end
// once per registered matching scheme — the CLI half of the paper's
// plain-vs-ASPE comparison — and twice more at slice counts that do not
// divide the EPC budget page-evenly (one at -epc 0, the default budget),
// where the identity the router writes to its trust bundle before it
// launches must still be the one its slices measure to, or no publisher
// attests it. Setting SCBR_SCHEME restricts the run to one scheme (the
// CI matrix does).
func TestCLIDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs three binaries")
	}
	bin := t.TempDir()
	for _, tool := range []string{"scbr-router", "scbr-publisher", "scbr-subscriber"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "scbr/cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	for _, leg := range []struct {
		name, scheme string
		routerArgs   []string
	}{
		{"sgx-plain", "sgx-plain", nil},
		{"aspe", "aspe", nil},
		{"partitions=5", "sgx-plain", []string{"-partitions", "5"}},
		{"partitions=7,epc=0", "sgx-plain", []string{"-partitions", "7", "-epc", "0"}},
	} {
		if only := os.Getenv("SCBR_SCHEME"); only != "" && only != leg.scheme {
			continue
		}
		t.Run(leg.name, func(t *testing.T) {
			runCLIDeployment(t, bin, leg.scheme, leg.routerArgs...)
		})
	}
}

func runCLIDeployment(t *testing.T, bin, schemeName string, routerArgs ...string) {
	work := t.TempDir()
	trust := filepath.Join(work, "trust.json")
	pubKey := filepath.Join(work, "pub.json")
	routerAddr := freePort(t)
	pubAddr := freePort(t)

	var wg sync.WaitGroup
	start := func(name string, args ...string) *exec.Cmd {
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = work
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		})
		return cmd
	}

	start("scbr-router", append([]string{"-listen", routerAddr, "-trust", trust, "-scheme", schemeName,
		"-platform", "cli-" + schemeName}, routerArgs...)...)
	waitFile(t, trust)
	waitListening(t, routerAddr)

	start("scbr-publisher",
		"-router", routerAddr, "-trust", trust,
		"-listen", pubAddr, "-key", pubKey, "-scheme", schemeName,
		"-feed", "e80a1", "-count", "0", "-interval", "50ms", "-seed", "3")
	waitFile(t, pubKey)
	waitListening(t, pubAddr)

	// Subscriber with a broad filter; capture its stdout.
	sub := exec.Command(filepath.Join(bin, "scbr-subscriber"),
		"-id", "cli-test",
		"-publisher", pubAddr, "-router", routerAddr, "-key", pubKey,
		"-sub", "close > 0", "-count", "3")
	sub.Dir = work
	stdout, err := sub.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	sub.Stderr = os.Stderr
	if err := sub.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = sub.Process.Kill()
		_, _ = sub.Process.Wait()
	})

	lines := make(chan string, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	defer wg.Wait()

	received := 0
	deadline := time.After(60 * time.Second)
	for received < 3 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("subscriber exited after %d deliveries", received)
			}
			if strings.Contains(line, "payload=") {
				received++
				if !strings.Contains(line, "close") {
					t.Fatalf("payload does not look like a quote: %s", line)
				}
			}
		case <-deadline:
			t.Fatalf("timed out with %d deliveries", received)
		}
	}
	fmt.Printf("CLI deployment (%s) delivered %d quotes\n", schemeName, received)
}
