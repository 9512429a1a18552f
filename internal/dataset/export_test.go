package dataset

import "testing"

// setBlockSize shrinks the sequential refill block for one test, so that
// small containers cross many refill edges.
func setBlockSize(tb testing.TB, n int) {
	old := blockSize
	blockSize = n
	tb.Cleanup(func() { blockSize = old })
}
