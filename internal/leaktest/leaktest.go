// Package leaktest checks, from a test, that the goroutines a piece of
// work started have ended.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Settle waits up to within for the number of goroutines to fall back
// to before (a runtime.NumGoroutine reading taken before the work), and
// otherwise fails t with the count and every goroutine's stack. after
// names the point the work ended at, for the message.
func Settle(t testing.TB, before int, within time.Duration, after string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after %s:\n%s", before, runtime.NumGoroutine(), after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
