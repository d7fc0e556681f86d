// Package errcheckiogood handles, explicitly discards, or defers every
// I/O error.
package errcheckiogood

import (
	"fmt"
	"os"
)

func Handled(path string) error {
	if err := os.Remove(path); err != nil {
		return err
	}
	return nil
}

func Explicit(path string) {
	_ = os.Remove(path) // a visible decision, allowed
}

func DeferredCleanup(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // deferred cleanup on a read path is exempt
	buf := make([]byte, 16)
	n, err := f.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

func OutOfScope() {
	fmt.Println("fmt is not an I/O-bearing package for this rule")
}
