// Package noscan exercises the pointer-word check on //rtmw:noscan types and
// the placement of the annotation.
package noscan

import "unsafe"

type pair struct{ a, b int64 }

// flat holds integers, floats, bools, arrays of them and structs of them,
// and an empty array of pointers, which takes no word.
//
//rtmw:noscan
type flat struct {
	n     int32
	f     float64
	ok    bool
	pairs [4]pair
	none  [0]*int
}

//rtmw:noscan
type ids []int32 // want `noscan type ids holds a pointer word at itself \(\[\]int32\)`

//rtmw:noscan
type holdsSlice struct { // want `noscan type holdsSlice holds a pointer word at \.ids \(\[\]int\)`
	n   int
	ids []int
}

//rtmw:noscan
type holdsString struct { // want `at \.name \(string\)`
	name string
}

type withPointer struct {
	n int
	p *int
}

//rtmw:noscan
type nested struct { // want `at \.inner\[i\]\.p \(\*int\)`
	ok    flat
	inner [2]withPointer
}

//rtmw:noscan
type holdsMap struct{ m map[int]int } // want `at \.m \(map\[int\]int\)`

//rtmw:noscan
type holdsFunc struct{ f func() } // want `at \.f \(func\(\)\)`

//rtmw:noscan
type holdsIface struct{ v any } // want `at \.v \(any\)`

//rtmw:noscan
type holdsChan struct{ c chan int } // want `at \.c \(chan int\)`

//rtmw:noscan
type holdsUnsafe struct{ p unsafe.Pointer } // want `at \.p \(unsafe\.Pointer\)`

//rtmw:noscan
type generic[T any] struct{ v T } // want `at \.v \(T\)`

type (
	// inGroup is annotated on its own spec.
	//
	//rtmw:noscan
	inGroup struct{ a, b int32 }
	//rtmw:noscan
	badInGroup struct{ s []byte } // want `at \.s \(\[\]byte\)`
)

//rtmw:noscan // want `must annotate a type declaration`
func notAType() {}

var _ = []any{flat{}, ids{}, holdsSlice{}, holdsString{}, nested{}, holdsMap{}, holdsFunc{}, holdsIface{}, holdsChan{}, holdsUnsafe{}, generic[int]{}, inGroup{}, badInGroup{}}
