package proxy

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// FetchResult captures one client download: content digest, timing, and
// the arrival curve needed to compute startup delay.
type FetchResult struct {
	Bytes      int64
	SHA256     string
	TTFB       time.Duration // time to first byte
	Elapsed    time.Duration // total download time
	CacheState string        // X-Cache header from the proxy ("" from origin)

	samples []arrivalSample
}

type arrivalSample struct {
	t   time.Duration
	cum int64
}

// Fetch downloads url, recording the arrival curve as chunks land.
func Fetch(url string) (*FetchResult, error) { return FetchN(url, 0) }

// FetchN downloads url like Fetch but stops reading after limit bytes
// and closes the connection — a partial-viewing session that abandons
// the stream early (limit <= 0 downloads everything). The digest covers
// exactly the bytes read, so callers can only verify it against the
// full-object digest when the download ran to completion.
func FetchN(url string, limit int64) (*FetchResult, error) {
	start := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("proxy: fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("proxy: fetch %s: status %s", url, resp.Status)
	}
	res := &FetchResult{CacheState: resp.Header.Get("X-Cache")}
	hash := sha256.New()
	buf := make([]byte, 16*1024)
	for {
		want := int64(len(buf))
		if limit > 0 {
			if remaining := limit - res.Bytes; remaining < want {
				want = remaining
			}
		}
		if want <= 0 {
			break // watched enough; hang up on the rest of the stream
		}
		n, readErr := resp.Body.Read(buf[:want])
		if n > 0 {
			if res.Bytes == 0 {
				res.TTFB = time.Since(start)
			}
			res.Bytes += int64(n)
			hash.Write(buf[:n])
			res.samples = append(res.samples, arrivalSample{t: time.Since(start), cum: res.Bytes})
		}
		if readErr != nil {
			if errors.Is(readErr, io.EOF) {
				break
			}
			return nil, fmt.Errorf("proxy: fetch %s: read: %w", url, readErr)
		}
	}
	res.Elapsed = time.Since(start)
	res.SHA256 = hex.EncodeToString(hash.Sum(nil))
	return res, nil
}

// HitBytes returns how many bytes of this fetch were served from the
// proxy's cached prefix, parsed from the X-Cache header (0 on a miss or
// a direct-origin fetch). Summing it across fetches and dividing by the
// total bytes downloaded yields the live bandwidth-weighted hit ratio —
// the paper's traffic reduction ratio measured at the client.
func (r *FetchResult) HitBytes() int64 {
	const marker = "HIT-PREFIX; bytes="
	i := strings.Index(r.CacheState, marker)
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseInt(r.CacheState[i+len(marker):], 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// StartupDelay returns the smallest playout start time w such that a
// client consuming playbackRate bytes/s from time w onward never
// underruns: w = max(0, max_i(t_i - c_i/rate)) over the arrival curve.
// This is the client-side realization of the paper's service delay.
func (r *FetchResult) StartupDelay(playbackRate float64) time.Duration {
	if playbackRate <= 0 || len(r.samples) == 0 {
		return 0
	}
	var worst time.Duration
	for _, s := range r.samples {
		// Byte s.cum is consumed at playback time s.cum/rate; it arrived
		// at s.t, so the start must be delayed to at least s.t - cum/rate.
		consumeAt := time.Duration(float64(s.cum) / playbackRate * float64(time.Second))
		if d := s.t - consumeAt; d > worst {
			worst = d
		}
	}
	if worst < 0 {
		return 0
	}
	return worst
}

// ContentSHA256 returns the expected digest of object id with the given
// size, for end-to-end integrity checks.
func ContentSHA256(id int, size int64) string {
	hash := sha256.New()
	const chunk = 64 * 1024
	for off := int64(0); off < size; off += chunk {
		n := int64(chunk)
		if off+n > size {
			n = size - off
		}
		hash.Write(Content(id, off, n))
	}
	return hex.EncodeToString(hash.Sum(nil))
}
