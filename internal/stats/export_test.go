package stats

// ReferenceRegion exposes referenceRegion to the differential tests of
// package stats_test, which need core and the catalogue.
var ReferenceRegion = referenceRegion
