package depot

// Test helpers shared with the external test package (caches_test.go and
// the ablation caches' own tests beside it).
var (
	ReportXMLFor = reportXMLFor
	MustUpdate   = mustUpdate
	ReportsEqual = reportsEqual
)
