// Package hotalloc is the hotalloc-check fixture: fmt calls and interface
// boxing are flagged inside the configured hot functions (Hot and
// Key.Append here) and ignored everywhere else. The configured Renamed
// exists nowhere, so the stale entry is flagged at the package clause.
package hotalloc // want hotalloc

import (
	"errors"
	"fmt"
	"strconv"
)

type sink struct{}

func (sink) accept(v any) {}

// Key is a cache-key builder; Append is on the hot list.
type Key struct{ buf []byte }

func Hot(n int, s sink) (string, error) {
	msg := fmt.Sprintf("n=%d", n) // want hotalloc
	s.accept(n)                   // want hotalloc
	_ = any(n)                    // want hotalloc
	if n < 0 {
		return "", fmt.Errorf("hotalloc: negative n %d", n) // cold error exit: quiet
	}
	return msg, nil
}

func (k *Key) Append(n int, err error) []byte {
	// The sanctioned hot-path forms: strconv.Append*, errors.New, and
	// passing an existing interface value (no new box).
	k.buf = strconv.AppendInt(k.buf, int64(n), 10)
	if n < 0 {
		_ = errors.New("hotalloc: negative")
	}
	var s sink
	s.accept(err) // error-to-any: already an interface, no box
	//lint:ignore hotalloc one boxed length per call, amortized over the whole key
	s.accept(len(k.buf))
	return k.buf
}

// Cold is not on the hot list: fmt and boxing are fine here.
func Cold(n int) string {
	var s sink
	s.accept(n)
	return fmt.Sprintf("n=%d", n)
}
