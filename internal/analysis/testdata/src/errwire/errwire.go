// Package errwire is the golden-diagnostic corpus for the errwire
// analyzer: errors returned by the wire package's decode/apply functions
// must never be discarded. For the corpus this package plays the role of
// the wire package itself (the analyzer is configured with this path).
package errwire

import "errors"

var errBad = errors.New("bad")

// DecodeThing stands in for a single-error-result wire decoder.
func DecodeThing(p []byte) error {
	if len(p) == 0 {
		return errBad
	}
	return nil
}

// DecodeTwo stands in for a (value, error) wire decoder.
func DecodeTwo(p []byte) (int, error) { return len(p), nil }

// Size has no error result; discarding its result is fine.
func Size(p []byte) int { return len(p) }

func exprStatement(p []byte) {
	DecodeThing(p) // want errwire:"unchecked error from errwire.DecodeThing"
}

func blankSingle(p []byte) {
	_ = DecodeThing(p) // want errwire:"blank-assigned error from errwire.DecodeThing"
}

func blankMulti(p []byte) int {
	n, _ := DecodeTwo(p) // want errwire:"blank-assigned error from errwire.DecodeTwo"
	return n
}

func goStatement(p []byte) {
	go DecodeThing(p) // want errwire:"unchecked error from errwire.DecodeThing"
}

func deferStatement(p []byte) {
	defer DecodeThing(p) // want errwire:"unchecked error from errwire.DecodeThing"
}

func checkedIsFine(p []byte) error {
	if err := DecodeThing(p); err != nil {
		return err
	}
	n, err := DecodeTwo(p)
	if n < 0 {
		return errBad
	}
	return err
}

func usedInConditionIsFine(p []byte) bool {
	return DecodeThing(p) == nil
}

func noErrorResultIsFine(p []byte) {
	Size(p)
}

func allowedDiscard(p []byte) {
	_ = DecodeThing(p) //figret:allow(errwire) harness only exercises the panic-freedom contract
}
