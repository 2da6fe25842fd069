package taxonomy

// Test-only exports for the external test package, which can import
// the corpus generators (they import this package).

var (
	CategorizeDirect = categorizeDirect
	SameLabel        = sameLabel
)
