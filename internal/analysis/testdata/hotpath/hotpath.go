// Test fixture for the hotpath analyzer, type-checked as
// streamcache/internal/core so module-internal call edges resolve.
// Only //mediavet:hotpath-annotated functions are checked.
package core

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

//mediavet:hotpath
func hotFmt(x int) string {
	return fmt.Sprintf("%d", x) // want "fmt.Sprintf formats through reflection" "conversion of int to any boxes"
}

//mediavet:hotpath
func hotStrconvOK(x int) string {
	return strconv.Itoa(x) // negative: strconv is the sanctioned path
}

//mediavet:hotpath
func hotConcat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

//mediavet:hotpath
func hotConstConcatOK() string {
	return "prefix-" + "suffix" // negative: constant-folded at compile time
}

//mediavet:hotpath
func hotBox(x int) any {
	return x // want "boxes the value on the heap"
}

//mediavet:hotpath
func hotPointerBoxOK(p *int) any {
	return p // negative: pointers box without allocating
}

//mediavet:hotpath
func hotGrowingAppend(n int) int {
	var s []int
	for i := 0; i < n; i++ {
		s = append(s, i) // want "not pre-sized with a 3-arg make"
	}
	return len(s)
}

//mediavet:hotpath
func hotPresizedAppendOK(n int) int {
	s := make([]int, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, i) // negative: capacity budgeted up front
	}
	return len(s)
}

//mediavet:hotpath
func hotClosure(n int) func() int {
	return func() int { return n + hotAnnotatedHelper(n) } // want "closure captures n"
}

func coldHelper(x int) int { return x + 1 }

//mediavet:hotpath
func hotAnnotatedHelper(x int) int { return x * 2 }

//mediavet:hotpath
func hotCallsCold(x int) int {
	return coldHelper(x) // want "coldHelper which is not //mediavet:hotpath-annotated"
}

//mediavet:hotpath
func hotCallsHotOK(x int) int {
	return hotAnnotatedHelper(x) // negative: annotated callee
}

//mediavet:hotpath
func hotPanicOK(x int) int {
	if x < 0 {
		panic(fmt.Sprintf("negative input %d", x)) // negative: panic args are the cold path
	}
	return x
}

//mediavet:hotpath
func hotSuppressed(x int) string {
	//mediavet:ignore hotpath fixture exercising the suppression path
	return fmt.Sprintf("%d", x)
}

func coldFmtOK(x int) string {
	return fmt.Sprintf("%d", x) // negative: unannotated functions are unchecked
}

// The fixtures below pin the patterns the proxy data plane relies on:
// sync.Pool round-trips, prerendered header-slice assignment, and
// writes that alias pooled segment memory must all pass, while passing
// a non-pointer value to an interface-typed parameter must not.

//mediavet:hotpath
func sinkAny(v any) any { return v }

//mediavet:hotpath
func hotIfaceArg(x int) any {
	return sinkAny(x) // want "boxes the value on the heap"
}

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 16*1024)
	return &b
}}

//mediavet:hotpath
func hotPoolGetOK(r io.Reader) int {
	bp := bufPool.Get().(*[]byte) // negative: pool round-trip of a pointer
	defer bufPool.Put(bp)
	n, _ := r.Read(*bp)
	return n
}

var cachedHeader = []string{"HIT-PREFIX"}

//mediavet:hotpath
func hotHeaderAssignOK(h map[string][]string) {
	h["X-Cache"] = cachedHeader // negative: assigning a shared slice allocates nothing
}

//mediavet:hotpath
func hotSegmentWriteOK(w io.Writer, seg *[65536]byte, n int) (int, error) {
	return w.Write(seg[:n]) // negative: zero-copy write over aliased segment bytes
}

// Appends whose destination is not a local of the hot function are the
// caller's (or an amortized buffer's) budget.

var pkgScratch []int

type scratch struct{ buf []int }

//mediavet:hotpath
func hotAppendElsewhereOK(dst []int, s *scratch, x int) (out []int) {
	dst = append(dst, x)               // negative: parameter
	out = append(out, x)               // negative: named result
	s.buf = append(s.buf, x)           // negative: field
	pkgScratch = append(pkgScratch, x) // negative: package-level var
	return dst
}

// An annotation on a method is keyed by its receiver's type name,
// whatever the receiver's shape — value, pointer or generic — so the
// call edge from another hot function resolves.

type ring[T any] struct{ items []T }

//mediavet:hotpath
func (r *ring[T]) at(i int) T { return r.items[i] }

func (r *ring[T]) grow() { r.items = append(r.items, r.items...) }

//mediavet:hotpath
func (s *scratch) first() int { return s.buf[0] }

//mediavet:hotpath
func (s scratch) size() int { return len(s.buf) }

//mediavet:hotpath
func hotCallsMethods(r *ring[int], s *scratch) int {
	r.grow()                              // want "core.ring.grow which is not //mediavet:hotpath-annotated"
	return r.at(0) + s.first() + s.size() // negative: annotated methods
}

//mediavet:hotpath
func clamp(x, lo, hi int) int { return max(lo, min(x, hi)) }

//mediavet:hotpath
func hotReassignedPresizedOK(n int) int {
	var s []int
	n = clamp(n, 0, 64) // negative: three arguments do not make a make
	s = make([]int, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, i) // negative: pre-sized by assignment, not only by :=
	}
	return len(s)
}

type point struct{ x, y int }

//mediavet:hotpath
func hotAllocators(parts []string, s *scratch, p point) (string, func() int, any) {
	var joined string
	for _, part := range parts {
		joined += part // want "string .= allocates a new string per call"
	}
	return joined, s.first, p // want "method value first allocates a bound closure" "conversion of .*point to any boxes the value"
}

type handler struct{ cb func(int) int }

//mediavet:hotpath
func sumAll(xs ...any) int { return len(xs) }

var memo = map[int]any{}

// What does not box: conversions between concrete types, constants and
// nil into an interface, a comma-ok tuple, a spread slice; and a call
// through a func-typed field is dynamic, its budget the callee's.
//
//mediavet:hotpath
func hotNoBoxOK(h *handler, x int, xs []any) (any, any, int) {
	var v any
	var ok bool
	v, ok = memo[x]
	if !ok {
		return 1, nil, h.cb(x)
	}
	return v, nil, int(int64(x)) + sumAll(xs...)
}
