package script

import "github.com/ipa-grid/ipa/internal/analysis"

// OracleAnalysis is the tree-walking counterpart of Analysis, exported to
// the differential tests in package script_test: they need the event
// decoder of internal/events, which imports this package.
type OracleAnalysis interface {
	analysis.Analysis
	Output() string
}

// NewOracleAnalysis is NewAnalysis for the tree-walker.
func NewOracleAnalysis(source, decoderName string) (OracleAnalysis, error) {
	return newOracleAnalysis(source, decoderName)
}

// unregisterDecoder removes a decoder a test registered, so the test
// can run again in the same process (go test -count=N).
func unregisterDecoder(name string) {
	decoderMu.Lock()
	defer decoderMu.Unlock()
	delete(decoders, name)
}
