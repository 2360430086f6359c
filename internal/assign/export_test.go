package assign

// ReferenceGreedySearch exposes the clone-per-move greedy oracle
// (greedy_ref_test.go) to the external test package. Like the engine
// functions it takes already-normalized options: the caller sets
// MaxGreedyIters.
var ReferenceGreedySearch = referenceGreedySearch
