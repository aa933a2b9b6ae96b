// Command proxyd runs the acceleration architecture of Figure 1 on two
// local HTTP ports: a rate-limited origin server and, in front of it,
// the sharded partial-caching accelerator proxy. The catalog is
// generated from the Table 1 workload model (scaled down by default).
//
//	proxyd -origin-addr :8080 -proxy-addr :8081 -policy PB -cache-mb 256 -shards 8 &
//	curl -s http://localhost:8081/objects/0 | wc -c
//	curl -s http://localhost:8081/stats
//
// On SIGTERM or SIGINT proxyd drains gracefully: it stops accepting
// connections, waits for in-flight requests and origin transfers to
// finish, prints a final stats snapshot and the time each drain phase
// took (proxy server, origin server, quiesce), and exits 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamcache/internal/cluster"
	"streamcache/internal/core"
	"streamcache/internal/httpd"
	"streamcache/internal/proxy"
	"streamcache/internal/units"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "proxyd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		originAddr = flag.String("origin-addr", "127.0.0.1:8080", "origin listen address")
		proxyAddr  = flag.String("proxy-addr", "127.0.0.1:8081", "proxy listen address")
		policyName = flag.String("policy", "PB", "cache policy: IF, PB, IB, PB-V, IB-V, LRU, LFU, HYBRID, HYBRID-V, GDS, GDS-BW, GDSP")
		e          = flag.Float64("e", 0.5, "under-estimation factor for HYBRID policies")
		cacheMB    = flag.Int64("cache-mb", 256, "proxy cache capacity, MB (split across shards)")
		shards     = flag.Int("shards", 1, "number of proxy shards (ID-hashed object partitions)")
		objects    = flag.Int("objects", 50, "catalog size")
		meanKB     = flag.Int64("mean-kb", 2048, "mean object size, KB")
		rateKBps   = flag.Float64("rate-kbps", 512, "object playback rate, KB/s")
		originKBps = flag.Float64("origin-kbps", 256, "origin path bandwidth limit, KB/s (0 = unlimited)")
		seed       = flag.Int64("seed", 1, "random seed for the catalog")
		drainSec   = flag.Float64("drain-timeout", 30, "graceful-drain timeout on SIGTERM, seconds")

		// Cluster flags: every node of one cluster must share the same
		// catalog flags (-objects, -mean-kb, -rate-kbps, -seed) and the
		// identical -peers list — object ownership is positional on the
		// consistent-hash ring.
		originURL = flag.String("origin-url", "", "external origin base URL (e.g. http://host:8080); skips starting the local origin")
		peers     = flag.String("peers", "", "comma-separated edge base URLs in ring order, self included (enables consistent-hash peering)")
		nodeIndex = flag.Int("node-index", 0, "this node's index in -peers")
		parentURL = flag.String("parent", "", "parent-tier proxy base URL (misses go edge -> peer owner -> parent -> origin)")
		tier      = flag.String("tier", "", "node tier label surfaced in /stats (e.g. edge, parent)")
		peerTmo   = flag.Duration("peer-timeout", 5*time.Second, "peer/parent response-header timeout before a fetch falls back to the origin")
	)
	flag.Parse()

	// The drain handler goes in before anything listens: a SIGTERM sent
	// as soon as /stats answers must drain, not kill the process.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)

	catalog, err := proxy.BuildCatalog(*objects, *meanKB, *rateKBps, *seed)
	if err != nil {
		return err
	}
	policy, err := core.PolicyByName(*policyName, *e)
	if err != nil {
		return err
	}

	// With -origin-url the node fronts an origin another process runs
	// (the multi-node deployment); otherwise it runs its own.
	defaultOrigin := *originURL
	startOrigin := defaultOrigin == ""
	if startOrigin {
		defaultOrigin = "http://" + *originAddr
	}

	upstream := &http.Client{}
	pcfg := proxy.Config{
		Client:     upstream,
		Catalog:    catalog,
		OriginURL:  defaultOrigin,
		Shards:     *shards,
		CacheBytes: *cacheMB * units.MB,
		NewPolicy:  func() core.Policy { return policy },
		Tier:       *tier,
	}
	if *peers != "" || *parentURL != "" {
		node := cluster.NodeConfig{
			Self:              *nodeIndex,
			Parent:            *parentURL,
			Origin:            defaultOrigin,
			PeerHeaderTimeout: *peerTmo,
		}
		if *peers != "" {
			node.Peers = strings.Split(*peers, ",")
		}
		ups, route, err := node.Router()
		if err != nil {
			return err
		}
		pcfg.Upstreams = ups
		pcfg.Router = route
	}
	px, err := proxy.New(pcfg)
	if err != nil {
		return err
	}

	proxyLn, err := net.Listen("tcp", *proxyAddr)
	if err != nil {
		return fmt.Errorf("proxy listen: %w", err)
	}
	// The proxy port is served by the wire loop (one vectored write per
	// hit; DESIGN.md §8b); the origin is a test double and stays on
	// net/http.
	proxySrv := &httpd.Server{Handler: px}

	errc := make(chan error, 2)
	var originSrv *http.Server
	if startOrigin {
		origin, err := proxy.NewOrigin(catalog, units.KBps(*originKBps))
		if err != nil {
			proxyLn.Close()
			return err
		}
		originLn, err := net.Listen("tcp", *originAddr)
		if err != nil {
			proxyLn.Close()
			return fmt.Errorf("origin listen: %w", err)
		}
		originSrv = &http.Server{Handler: origin, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			fmt.Printf("origin  listening on %s (path limit %.0f KB/s, %d objects)\n",
				originLn.Addr(), *originKBps, catalog.Len())
			errc <- originSrv.Serve(originLn)
		}()
	} else {
		fmt.Printf("origin  external at %s\n", defaultOrigin)
	}
	go func() {
		fmt.Printf("proxy   listening on %s (policy %s, cache %d MB, %d shards, tier %q)\n",
			proxyLn.Addr(), *policyName, *cacheMB, px.Shards(), *tier)
		errc <- proxySrv.Serve(proxyLn)
	}()

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("proxyd: %v: draining...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSec*float64(time.Second)))
		defer cancel()
		// Stop the proxy's client side first so no new joint deliveries
		// start, then the origin (in-flight relays finish through it),
		// then wait for relay reconciliation to settle. Each phase is
		// timed, so a slow drain names the phase that held it.
		var phases []string
		timed := func(name string, start time.Time) {
			phases = append(phases, fmt.Sprintf("%s=%v", name, time.Since(start).Round(time.Microsecond)))
		}
		start := time.Now()
		if err := proxySrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "proxyd: proxy shutdown:", err)
		}
		timed("proxy", start)
		if originSrv != nil {
			start = time.Now()
			// A connection the proxy dialed for a fetch that another one
			// then served has sent no request, and Shutdown waits up to
			// 5 s for such a connection: close the idle ones first.
			upstream.CloseIdleConnections()
			if err := originSrv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "proxyd: origin shutdown:", err)
			}
			timed("origin", start)
		}
		// Quiesce within whatever remains of the drain window: the flag
		// bounds the whole drain, so a stalled transfer cannot hold the
		// process past it.
		start = time.Now()
		quiesced := make(chan struct{})
		go func() {
			px.Quiesce()
			close(quiesced)
		}()
		select {
		case <-quiesced:
			timed("quiesce", start)
		case <-ctx.Done():
			return fmt.Errorf("drain timed out after %gs with transfers still in flight (drain %s)", *drainSec, strings.Join(phases, " "))
		}
		out, err := json.Marshal(px.Snapshot())
		if err != nil {
			return err
		}
		fmt.Printf("proxyd: drained; final stats: %s drain %s\n", out, strings.Join(phases, " "))
		return nil
	}
}
