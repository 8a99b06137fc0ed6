// Package noalloc exercises the allocation-construct checks on annotated
// functions, including the sanctioned amortized append shapes.
package noalloc

import "fmt"

type ent struct {
	at  int64
	idx int
}

type engine struct {
	heap    []ent
	scratch []int
	label   string
}

func sinkAny(v interface{})  {}
func sinkErr(err error)      {}
func sinkPtr(p *engine)      {}
func variadic(vs ...any)     {}
func helper(x int) int       { return x }
func (e *engine) step() bool { return len(e.heap) > 0 }

//rtmw:noalloc
func closures(e *engine) {
	f := func() {} // want `closure literal in noalloc function`
	f()
}

//rtmw:noalloc
func fmtCall(e *engine) {
	fmt.Println(e.label) // want `call into package fmt allocates`
}

//rtmw:noalloc
func badAppend(e *engine, x ent) {
	h := append(e.heap, x) // want `unbounded append: result does not land back in its source`
	_ = h
}

//rtmw:noalloc
func goodAppend(e *engine, x ent) {
	e.heap = append(e.heap, x)
	e.scratch = append(e.scratch[:0], 1, 2)
}

//rtmw:noalloc
func paramAppend(buf []int, v int) []int {
	return append(buf, v)
}

var pkgScratch []int

//rtmw:noalloc
func outlivingAppend(buf []int, v int) (out []int) {
	buf = append(buf, v) // a parameter is the caller's buffer
	pkgScratch = append(pkgScratch[:0], v)
	out = append(out, v) // a named result is declared in the signature
	return buf
}

//rtmw:noalloc
func localAppend(e *engine, vs []int) int {
	var seenBuf [4]int
	seen := seenBuf[:0]
	var fresh []int
	for _, v := range vs {
		seen = append(seen, v)   // want `append to seen, declared in the function body, re-grows on every call`
		fresh = append(fresh, v) // want `append to fresh, declared in the function body`
	}
	// An alias is not followed back to the field it was cut from: append to
	// the field, or say why in an ignore.
	alias := e.scratch[:0]
	alias = append(alias, 1) // want `append to alias, declared in the function body`
	e.scratch = alias
	return len(seen) + len(fresh)
}

//rtmw:noalloc
func boundedLocalAppend(a, b int) int {
	var buf [2]int
	pair := buf[:0]
	//rtmw:ignore noalloc two appends into a two-slot array never outgrow it
	pair = append(pair, a)
	//rtmw:ignore noalloc two appends into a two-slot array never outgrow it
	pair = append(pair, b)
	return len(pair)
}

//rtmw:noalloc
func returnForeignAppend(e *engine, v int) []int {
	return append(e.scratch, v) // want `unbounded append`
}

//rtmw:noalloc
func makeNew(n int) {
	s := make([]int, n) // want `make allocates`
	p := new(engine)    // want `new allocates`
	_, _ = s, p
}

//rtmw:noalloc
func lazyInit(e *engine, n int) {
	if e.scratch == nil {
		//rtmw:ignore noalloc one-time lazy scratch growth, amortized to zero
		e.scratch = make([]int, n)
	}
}

//rtmw:noalloc
func addrLit() *engine {
	return &engine{} // want `&composite-literal allocates`
}

//rtmw:noalloc
func sliceLit() {
	s := []int{1, 2, 3} // want `slice literal allocates its backing store`
	m := map[int]int{}  // want `map literal allocates its backing store`
	_, _ = s, m
}

//rtmw:noalloc
func valueLit() ent {
	return ent{at: 1, idx: 2} // value composite literals stay on the stack
}

//rtmw:noalloc
func concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//rtmw:noalloc
func boxing(e *engine, n int) {
	sinkAny(n)     // want `interface boxing: int passed as interface\{\} allocates`
	sinkAny(e)     // pointers fit the interface word: no boxing
	variadic(*e)   // want `variadic call allocates its argument slice` `interface boxing`
	variadic(e, e) // want `variadic call allocates its argument slice`
	sinkErr(nil)
}

//rtmw:noalloc
func conversions(b []byte, s string) {
	x := string(b) // want `string\(\[\]byte\) conversion copies`
	y := []byte(s) // want `\[\]byte\(string\) conversion copies`
	_, _ = x, y
}

//rtmw:noalloc
func cleanHotPath(e *engine, x ent) bool {
	for e.step() {
		e.heap = append(e.heap, x)
		if helper(len(e.heap)) > 4 {
			return true
		}
	}
	return false
}

// unannotated may allocate freely: none of this is flagged.
func unannotated(e *engine, n int) *engine {
	s := make([]int, n)
	f := func() {}
	f()
	_ = s
	_ = fmt.Sprintf("%d", n)
	return &engine{}
}
