package preprocess

// Candidates returns every preprocessor kind but Identity, with the
// parameters of the paper's Table I pool (§III-G), for the package's tests
// and fuzz targets. The zoo's own design pool is model.CandidatePool.
func Candidates() []Preprocessor {
	return []Preprocessor{
		AdHist{},
		ConNorm{},
		FlipX{},
		FlipY{},
		Gamma{G: 1.5},
		Gamma{G: 2},
		Hist{},
		ImAdj{},
		Scale{P: 0.8},
	}
}
