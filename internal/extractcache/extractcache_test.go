package extractcache

import (
	"encoding/hex"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"homeguard/internal/corpus"
	"homeguard/internal/symexec"
)

func TestHitMiss(t *testing.T) {
	app, ok := corpus.Get("ComfortTV")
	if !ok {
		t.Fatal("corpus app ComfortTV missing")
	}
	other, _ := corpus.Get("ColdDefender")

	c := New()
	r1, err := c.Extract(app.Source, "")
	if err != nil {
		t.Fatalf("first extract: %v", err)
	}
	r2, err := c.Extract(app.Source, "")
	if err != nil {
		t.Fatalf("second extract: %v", err)
	}
	if r1 != r2 {
		t.Error("second extract of identical source returned a different *Result; want the cached one")
	}
	if _, err := c.Extract(other.Source, ""); err != nil {
		t.Fatalf("extract distinct app: %v", err)
	}
	s := c.Stats()
	if s.Lookups != 3 || s.Hits != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 3 lookups / 1 hit / 2 misses / 2 entries", s)
	}
	if got, want := s.HitRate(), 1.0/3.0; got != want {
		t.Errorf("HitRate() = %v, want %v", got, want)
	}
}

func TestNameOverrideChangesKey(t *testing.T) {
	if KeyOf("src", "") == KeyOf("src", "x") {
		t.Error("name override should change the content address")
	}
	// Domain separation: the (src, name) split point must matter.
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Error("source and name are not domain-separated in the key")
	}
}

func TestErrorsAreCached(t *testing.T) {
	c := New()
	_, err1 := c.Extract("not groovy {{{", "")
	if err1 == nil {
		t.Fatal("expected a parse error")
	}
	_, err2 := c.Extract("not groovy {{{", "")
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("second extract returned %v, want the cached error %v", err2, err1)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the failing source extracted once and the error replayed", s)
	}
}

// TestSingleflightDedup proves that N goroutines racing on one uncached
// key run extraction exactly once: the extractor blocks until every
// goroutine has issued its lookup, so all N are provably concurrent.
func TestSingleflightDedup(t *testing.T) {
	const n = 32
	var calls atomic.Int64
	arrived := make(chan struct{}, n)
	release := make(chan struct{})
	want := &symexec.Result{}
	c := NewWithExtractor(func(src, appName string) (*symexec.Result, error) {
		calls.Add(1)
		<-release // hold the flight open until all goroutines have joined
		return want, nil
	})

	var wg sync.WaitGroup
	results := make([]*symexec.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived <- struct{}{}
			r, err := c.Extract("hot-app-source", "")
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = r
		}(i)
	}
	// Wait until every goroutine is at (or past) its Extract call, then
	// let the single in-flight extraction finish.
	for i := 0; i < n; i++ {
		<-arrived
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("extractor ran %d times for one key under contention, want exactly 1", got)
	}
	for i, r := range results {
		if r != want {
			t.Fatalf("goroutine %d got result %p, want the shared %p", i, r, want)
		}
	}
	s := c.Stats()
	if s.Lookups != n || s.Misses != 1 || s.Hits != n-1 {
		t.Errorf("stats = %+v, want %d lookups / 1 miss / %d hits", s, n, n-1)
	}
}

// TestExtractorPanicDoesNotWedge checks panic safety: a panicking
// extraction must re-raise for its own caller but leave a cached error —
// never an unclosed entry that would block later lookups forever.
func TestExtractorPanicDoesNotWedge(t *testing.T) {
	c := NewWithExtractor(func(src, appName string) (*symexec.Result, error) {
		panic("boom")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("first Extract did not re-raise the extractor panic")
			}
		}()
		c.Extract("src", "")
	}()
	done := make(chan error, 1)
	go func() {
		_, err := c.Extract("src", "")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("post-panic Extract returned nil error, want the cached panic error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Extract after extractor panic blocked: singleflight entry was never closed")
	}
}

func TestPurge(t *testing.T) {
	app, _ := corpus.Get("ComfortTV")
	c := New()
	if _, err := c.Extract(app.Source, ""); err != nil {
		t.Fatal(err)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len() = %d after Purge, want 0", c.Len())
	}
	if _, err := c.Extract(app.Source, ""); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Errorf("misses = %d after purge+re-extract, want 2", s.Misses)
	}
}

// TestBoundedEviction pins the entry cap: inserting past the limit evicts
// completed entries, counts them, and evicted keys re-extract on return.
func TestBoundedEviction(t *testing.T) {
	calls := 0
	c := NewWithExtractor(func(src, appName string) (*symexec.Result, error) {
		calls++
		return &symexec.Result{}, nil
	})
	c.SetLimit(2)
	srcs := []string{"a", "b", "c", "d"}
	for _, s := range srcs {
		if _, err := c.Extract(s, ""); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > 2 {
		t.Fatalf("entries = %d, want <= 2", st.Entries)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if calls != 4 {
		t.Fatalf("extractions = %d, want 4", calls)
	}
	// Evicted keys re-extract; re-inserting them may evict keys that the
	// same sweep then misses again, so anywhere between the 2 originally
	// evicted and all 4 can re-run — but never more.
	before := calls
	for _, s := range srcs {
		if _, err := c.Extract(s, ""); err != nil {
			t.Fatal(err)
		}
	}
	if re := calls - before; re < 2 || re > 4 {
		t.Fatalf("re-extractions = %d, want between 2 and 4", re)
	}
}

// TestKeyOfGolden pins the content address: checkpoints store cache
// entries by key, so a change to the hashing would orphan every cached
// extraction a restored node brings back.
func TestKeyOfGolden(t *testing.T) {
	const src = "definition(name: \"GoldenKey\")\n"
	for _, tc := range []struct{ name, want string }{
		{"", "1dd9920d670b17f9d7cc2550168bb28fe99bdec1545dc55330910311ac3e1211"},
		{"Override", "7e821c462b3cb7f24dd6c8a2147e2a7fa3bead59b826f807968751c507e890a8"},
	} {
		k := KeyOf(src, tc.name)
		if got := hex.EncodeToString(k[:]); got != tc.want {
			t.Errorf("KeyOf(src, %q) = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestKeyOfAllocsFlat checks KeyOf hashes the source in place: the
// bytes it allocates per call must not grow with the source's length.
// (Counting allocations alone would miss a copy: a short and a long
// []byte conversion are one allocation each.)
func TestKeyOfAllocsFlat(t *testing.T) {
	short := "definition(name: \"A\")"
	long := strings.Repeat(short+"\n", 1<<14) // ~370 KB
	var sink Key
	bytesPerCall := func(src string) uint64 {
		const n = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			sink = KeyOf(src, "name")
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	a, b := bytesPerCall(short), bytesPerCall(long)
	if b > a+1024 {
		t.Errorf("KeyOf allocates %d B/call for %d source bytes but %d B/call for %d; want no growth with length",
			a, len(short), b, len(long))
	}
	_ = sink
}
