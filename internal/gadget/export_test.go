package gadget

// Classify exposes the classifier to the external scanner oracle.
var Classify = classify

// WithDefaults exposes the scanner's config defaulting to the oracle.
func (c ScanConfig) WithDefaults() ScanConfig { return c.withDefaults() }
