package code

// UseReferenceEngine makes every Engine.Run execute through the
// per-instruction reference engine until the returned function restores
// the compiled path. Tests that call it must not run in parallel with
// other engine users.
func UseReferenceEngine() (restore func()) {
	execModel = refCall
	return func() { execModel = (*Engine).call }
}
