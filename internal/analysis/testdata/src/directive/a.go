// Package directive exercises the annotation-grammar checks.
package directive

//rtmw:bogus // want `unknown rtmw directive "bogus"`
func unknownKind() {}

//rtmw:ignore noalloc // want `the reason is mandatory`
func missingReason() {}

//rtmw:ignore nosuchanalyzer because reasons // want `names unknown analyzer "nosuchanalyzer"`
func unknownAnalyzer() {}

//rtmw:deterministic sometimes // want `takes no argument or the single word`
func badDeterministicArg() {}

//rtmw:noalloc really // want `takes no arguments`
func badNoallocArg() {}

//rtmw:noalloc
func wellFormed() {}

//rtmw:noscan words // want `takes no arguments`
type badNoscanArg struct{}

//rtmw:noscan
type wellFormedType struct{}
