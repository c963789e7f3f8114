package mdl

// ReferenceTopK exposes the test-only reference ranking to the external
// suite test, which needs the synthesizer's validation and so cannot live
// in this package.
var ReferenceTopK = referenceTopK
