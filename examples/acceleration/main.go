// Acceleration: the paper's Figure 1 running live on loopback HTTP.
// An origin server is throttled to half the stream's playback rate, so a
// cold client must wait before playout can start. After the proxy caches
// the prefix, the same request starts almost immediately while the
// remainder is prefetched from the origin behind the playout point -
// joint delivery in action.
package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"streamcache/internal/core"
	"streamcache/internal/proxy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "acceleration:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		kb           = 1024
		objectSize   = 512 * kb // one 512 KB stream
		playbackRate = 512 * kb // plays at 512 KB/s (a 1-second stream)
		originRate   = 256 * kb // origin path limited to half the rate
	)
	catalog, err := proxy.NewCatalog([]proxy.Meta{
		{ID: 1, Size: objectSize, Rate: playbackRate, Value: 5},
	})
	if err != nil {
		return err
	}
	origin, err := proxy.NewOrigin(catalog, originRate)
	if err != nil {
		return err
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()

	// IB policy: cache whole objects with the highest F/b utility.
	px, err := proxy.New(proxy.Config{
		Catalog: catalog, OriginURL: originSrv.URL,
		CacheBytes: 64 << 20, NewPolicy: core.NewIB,
	})
	if err != nil {
		return err
	}
	proxySrv := httptest.NewServer(px)
	defer proxySrv.Close()

	fmt.Printf("origin %s (limited to %d KB/s)\nproxy  %s\n\n", originSrv.URL, originRate/kb, proxySrv.URL)

	url := proxySrv.URL + "/objects/1"
	for _, label := range []string{"cold (cache empty)", "warm (prefix cached)"} {
		res, err := proxy.Fetch(url)
		if err != nil {
			return err
		}
		if res.SHA256 != proxy.ContentSHA256(1, objectSize) {
			return fmt.Errorf("%s fetch corrupted the stream", label)
		}
		fmt.Printf("%-22s X-Cache=%-24q download=%7.0fms  startup_delay=%6.0fms\n",
			label, res.CacheState,
			res.Elapsed.Seconds()*1000,
			res.StartupDelay(playbackRate).Seconds()*1000)
	}

	var stats proxy.Stats
	if err := fetchJSON(proxySrv.URL+"/stats", &stats); err == nil {
		fmt.Printf("\nproxy stats: %d requests, %d prefix hits, %d bytes cached, origin estimate %d B/s\n",
			stats.Requests, stats.PrefixHits, stats.UsedBytes, stats.EstimateBps(""))
	}
	fmt.Println("\nThe warm fetch starts playback immediately: the cached prefix")
	fmt.Println("covers the bandwidth deficit while the rest streams from the origin.")
	return nil
}

func fetchJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return jsonDecode(resp, v)
}
