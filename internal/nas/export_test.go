package nas

// Helpers shared with the external test package, which alone can import
// internal/cluster (cluster imports nas) and so holds the tests that range
// over all three executors.
var (
	TinyApp     = tinyApp
	TracesEqual = tracesEqual
)

// ReportSpy is reportSpy (failure_test.go).
type ReportSpy = reportSpy
