// Package errcheckiobad drops error returns from os and io calls.
package errcheckiobad

import (
	"io"
	"os"
)

func Drop(path string) {
	os.Remove(path) // want "os.Remove"
}

func DropGo(path string) {
	go os.Remove(path) // want "os.Remove"
}

func DropCopy(dst io.Writer, src io.Reader) {
	io.Copy(dst, src) // want "io.Copy"
}

func DropMethod(f *os.File) {
	f.Sync() // want "os.Sync"
}

// DropClose ignores the close error on a bare statement.
func DropClose(f *os.File) {
	f.Close() // want "os.Close"
}

type sink struct{}

func (sink) Close() error { return nil }

// DropSinkClose: a Close method that returns an error is in scope
// whatever package declares it.
func DropSinkClose(s sink) {
	s.Close() // want "errcheckiobad.Close"
}
