package service

import "context"

// Test-only seams for the external wire-contract suites (package
// service_test), which exercise the daemon through internal/client the
// way real remote callers do and therefore cannot touch unexported
// state directly.

// SetTestAnalyzeHook installs (or, with nil, removes) the engine's
// test-only analysis hook: f runs inside the fault guard before every
// analysis, so external suites can inject panics and stalls per module.
func SetTestAnalyzeHook(f func(ctx context.Context, module string)) {
	testAnalyzeHook = f
}

// CleanCheckSrc is the minimal healthy check-mode module the in-package
// tests use, shared so the external suites assert against the same
// source text.
const CleanCheckSrc = cleanCheckSrc

// CacheWaiting reports how many requests are parked on a concurrent
// cold run in s's result cache, so the coalescing suites can release a
// held leader once its followers have joined.
func CacheWaiting(s *Server) int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return s.cache.waiting
}

// DecodeSeeds returns the one-pass decoder's seed requests (the corpus
// in every mode and the XStack multi_module leaves) and one batch
// holding both kinds.
func DecodeSeeds() ([]AnalyzeRequest, BatchRequest) {
	reqs := decodeSeedRequests()
	return reqs, decodeSeedBatch(reqs)
}

// DecodesInOnePass decodes body into dst on the one-pass path and
// reports whether that path took it (false leaves dst untouched).
func DecodesInOnePass(body []byte, dst any) bool { return decodeOnePass(body, dst) }
