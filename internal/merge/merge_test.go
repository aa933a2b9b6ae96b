package merge

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// testObj is a 100-second stream at 1000 B/s.
var testObj = Object{Size: 100000, Rate: 1000}

func TestValidation(t *testing.T) {
	if _, err := Unicast([]float64{1}, Object{}); err == nil {
		t.Error("zero object accepted")
	}
	if _, err := Unicast([]float64{2, 1}, testObj); err == nil {
		t.Error("unsorted times accepted")
	}
	if _, err := Unicast([]float64{math.NaN()}, testObj); err == nil {
		t.Error("NaN time accepted")
	}
	if _, err := Batch([]float64{1}, testObj, -1); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := Patch([]float64{1}, testObj, -1, 0); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := Patch([]float64{1}, testObj, 1, -5); err == nil {
		t.Error("negative cached bytes accepted")
	}
}

func TestUnicastCost(t *testing.T) {
	res, err := Unicast([]float64{0, 1, 2}, testObj)
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginBytes != 300000 || res.FullStreams != 3 {
		t.Errorf("unicast: %+v, want 3 full streams / 300000 bytes", res)
	}
	if res.OriginBytes != res.UnicastBytes(testObj) {
		t.Errorf("unicast origin bytes = %v, want the baseline %v", res.OriginBytes, res.UnicastBytes(testObj))
	}
}

func TestEmptyRequests(t *testing.T) {
	for _, f := range []func() (Result, error){
		func() (Result, error) { return Unicast(nil, testObj) },
		func() (Result, error) { return Batch(nil, testObj, 5) },
		func() (Result, error) { return Patch(nil, testObj, 5, 0) },
	} {
		res, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if res.OriginBytes != 0 || res.Requests != 0 {
			t.Errorf("empty input produced work: %+v", res)
		}
	}
}

func TestBatchGroupsWithinWindow(t *testing.T) {
	// Requests at 0, 3, 9; window 5: {0,3} batch (stream at 5), {9} alone.
	res, err := Batch([]float64{0, 3, 9}, testObj, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullStreams != 2 {
		t.Errorf("full streams = %d, want 2", res.FullStreams)
	}
	if res.OriginBytes != 200000 {
		t.Errorf("origin bytes = %v, want 200000", res.OriginBytes)
	}
	// Delays: leader 5, follower 2, second leader 5 -> mean 4.
	if math.Abs(res.AvgAddedDelay-4) > 1e-9 {
		t.Errorf("avg added delay = %v, want 4", res.AvgAddedDelay)
	}
}

func TestBatchZeroWindowIsUnicast(t *testing.T) {
	times := []float64{0, 1, 2, 3}
	batch, err := Batch(times, testObj, 0)
	if err != nil {
		t.Fatal(err)
	}
	unicast, err := Unicast(times, testObj)
	if err != nil {
		t.Fatal(err)
	}
	if batch.OriginBytes != unicast.OriginBytes {
		t.Errorf("zero-window batch bytes %v != unicast %v", batch.OriginBytes, unicast.OriginBytes)
	}
	if batch.AvgAddedDelay != 0 {
		t.Errorf("zero-window delay = %v, want 0", batch.AvgAddedDelay)
	}
}

func TestBatchSimultaneousRequests(t *testing.T) {
	res, err := Batch([]float64{5, 5, 5}, testObj, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullStreams != 1 {
		t.Errorf("full streams = %d, want 1 for simultaneous arrivals", res.FullStreams)
	}
}

func TestPatchBasics(t *testing.T) {
	// Requests at 0 and 10, threshold 50: second request patches 10s of
	// content = 10000 bytes.
	res, err := Patch([]float64{0, 10}, testObj, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullStreams != 1 || res.Patches != 1 {
		t.Errorf("streams/patches = %d/%d, want 1/1", res.FullStreams, res.Patches)
	}
	if res.OriginBytes != 110000 {
		t.Errorf("origin bytes = %v, want 110000", res.OriginBytes)
	}
	if got := 1 - res.OriginBytes/res.UnicastBytes(testObj); math.Abs(got-0.45) > 1e-9 {
		t.Errorf("savings = %v, want 0.45", got)
	}
}

func TestPatchThresholdRestartsStream(t *testing.T) {
	// Threshold 5: request at 10 is beyond it, so a new full stream starts.
	res, err := Patch([]float64{0, 10}, testObj, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullStreams != 2 || res.Patches != 0 {
		t.Errorf("streams/patches = %d/%d, want 2/0", res.FullStreams, res.Patches)
	}
}

func TestPatchAfterStreamEndsRestarts(t *testing.T) {
	// Even with a huge threshold, a request after the stream finished
	// (duration 100s) cannot join it.
	res, err := Patch([]float64{0, 150}, testObj, 1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullStreams != 2 {
		t.Errorf("full streams = %d, want 2 (stream ended)", res.FullStreams)
	}
}

func TestPatchWithCachedPrefix(t *testing.T) {
	// 20 KB cached prefix: the full stream saves 20 KB from the origin
	// and a 10 s patch (10 KB) is served entirely from the cache.
	res, err := Patch([]float64{0, 10}, testObj, 50, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginBytes != 80000 {
		t.Errorf("origin bytes = %v, want 80000", res.OriginBytes)
	}
	if res.CacheBytes != 30000 {
		t.Errorf("cache bytes = %v, want 30000 (20K head + 10K patch)", res.CacheBytes)
	}
}

func TestPatchCachedPrefixClampedToObject(t *testing.T) {
	res, err := Patch([]float64{0}, testObj, 50, testObj.Size*10)
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginBytes != 0 {
		t.Errorf("origin bytes = %v, want 0 (fully cached)", res.OriginBytes)
	}
}

func TestOptimalPatchThreshold(t *testing.T) {
	// lambda=1 req/s, duration 100 s: N=100, T* = (sqrt(201)-1)/1.
	got, err := OptimalPatchThreshold(1, testObj)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(201) - 1
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("T* = %v, want %v", got, want)
	}
	if _, err := OptimalPatchThreshold(0, testObj); err == nil {
		t.Error("zero lambda accepted")
	}
	if _, err := OptimalPatchThreshold(1, Object{}); err == nil {
		t.Error("zero object accepted")
	}
}

func TestOptimalThresholdNearMinimumEmpirically(t *testing.T) {
	// The analytic T* should be within a factor of the empirical best
	// over a sweep, for Poisson arrivals.
	rng := rand.New(rand.NewSource(5))
	const lambda = 0.5
	var times []float64
	now := 0.0
	for i := 0; i < 4000; i++ {
		now += rng.ExpFloat64() / lambda
		times = append(times, now)
	}
	tStar, err := OptimalPatchThreshold(lambda, testObj)
	if err != nil {
		t.Fatal(err)
	}
	atT := func(threshold float64) float64 {
		res, err := Patch(times, testObj, threshold, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.OriginBytes
	}
	best := math.Inf(1)
	for th := 5.0; th <= 100; th += 5 {
		if b := atT(th); b < best {
			best = b
		}
	}
	if got := atT(tStar); got > best*1.05 {
		t.Errorf("bytes at T*=%.1f (%.0f) exceed empirical best (%.0f) by >5%%", tStar, got, best)
	}
}

func TestMergeNeverWorseThanUnicastProperty(t *testing.T) {
	f := func(seed int64, windowRaw, thresholdRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		times := make([]float64, n)
		now := 0.0
		for i := range times {
			now += rng.ExpFloat64() * 10
			times[i] = now
		}
		window := float64(windowRaw)
		threshold := float64(thresholdRaw)
		unicast, err := Unicast(times, testObj)
		if err != nil {
			return false
		}
		batch, err := Batch(times, testObj, window)
		if err != nil {
			return false
		}
		patch, err := Patch(times, testObj, threshold, 0)
		if err != nil {
			return false
		}
		return batch.OriginBytes <= unicast.OriginBytes+1e-9 &&
			patch.OriginBytes <= unicast.OriginBytes+1e-9 &&
			batch.FullStreams+patch.FullStreams >= 2 // both serve someone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPatchCacheMonotoneProperty(t *testing.T) {
	// More cached prefix never increases origin bytes.
	f := func(seed int64, cacheRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		times := make([]float64, n)
		now := 0.0
		for i := range times {
			now += rng.ExpFloat64() * 20
			times[i] = now
		}
		c1 := int64(cacheRaw)
		c2 := c1 + 10000
		r1, err := Patch(times, testObj, 30, c1)
		if err != nil {
			return false
		}
		r2, err := Patch(times, testObj, 30, c2)
		if err != nil {
			return false
		}
		return r2.OriginBytes <= r1.OriginBytes+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConservationProperty(t *testing.T) {
	// Origin bytes + cache bytes must equal the bytes actually delivered
	// (full streams + patches).
	f := func(seed int64, cacheRaw uint16, thresholdRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		times := make([]float64, n)
		now := 0.0
		for i := range times {
			now += rng.ExpFloat64() * 15
			times[i] = now
		}
		cached := int64(cacheRaw)
		res, err := Patch(times, testObj, float64(thresholdRaw), cached)
		if err != nil {
			return false
		}
		delivered := res.OriginBytes + res.CacheBytes
		// Recompute delivered bytes independently.
		want := 0.0
		lastFull := math.Inf(-1)
		duration := testObj.duration()
		for _, tm := range times {
			elapsed := tm - lastFull
			if elapsed > float64(thresholdRaw) || elapsed >= duration {
				want += float64(testObj.Size)
				lastFull = tm
				continue
			}
			pb := int64(elapsed * testObj.Rate)
			if pb > testObj.Size {
				pb = testObj.Size
			}
			want += float64(pb)
		}
		return math.Abs(delivered-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
