package lint

// DefaultAnalyzers returns the repository's analyzer suite configured for
// a module rooted at modulePath (normally "alex"): the obs name registry
// guards modulePath/internal/obs, and the determinism policy covers the
// packages the paper's figures are reproduced from — RL, similarity,
// experiment harness, data generation and fault injection, where every
// random draw must come from an explicit seed.
func DefaultAnalyzers(modulePath string) []Analyzer {
	internal := func(p string) string { return modulePath + "/internal/" + p }
	return []Analyzer{
		&ObsNames{ObsPath: internal("obs")},
		// (*Prepared).EvalSlots is the one function that mints a root
		// context: bench/ calls it with no request to take one from, and the
		// measuring instrument is not edited. Serving paths call
		// (*Prepared).Eval with theirs.
		&CtxFlow{Allow: []string{internal("sparql") + ".EvalSlots"}},
		&NoDeterminism{
			Packages: []string{
				internal("rl"),
				internal("sim"),
				internal("experiment"),
				internal("datagen"),
				internal("faultinject"),
				internal("traffic"),
				// Streaming ALEX: the live feedback/delta paths promise
				// worker-count-independent results, so no unseeded
				// randomness or clock reads may steer them.
				internal("core"),
				internal("feature"),
			},
		},
		&ErrWrap{},
		&NoPanic{},
		&LockDiscipline{},
	}
}
