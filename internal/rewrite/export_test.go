package rewrite

// GenFlatProgram is the property test's program generator, for the
// external tests that run its programs through a whole mediator.
var GenFlatProgram = genFlatProgram
