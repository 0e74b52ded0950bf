package core

import "repro/internal/tensor"

// ABFT verified execution (DESIGN.md §10). With verification prepared,
// every conv and dense product a member computes is checked against
// row/column checksums in the kernel epilogue, detected faults are
// re-executed, and outcomes aggregate into the system-wide counters that
// serving telemetry exports. A member whose fault could not be corrected
// by bounded re-execution abstains from voting for that inference (see
// suspectRow), so a compute fault degrades the ensemble to one fewer vote
// instead of silently corrupting the decision. Clean-run results are
// bit-identical to unverified execution — verification is a pure epilogue
// on every kernel (see internal/tensor/abft.go).

// PrepareVerified turns ABFT checksum verification on or off for every
// member and installs (or removes) the system-wide outcome sink. Like
// PrepareBackends this is configuration: call it before classifications
// are in flight. Individual members can opt back out afterwards by
// clearing their Verified flag; until PrepareVerified(true) runs, Verified
// flags have no effect and every member executes unverified.
func (s *System) PrepareVerified(on bool) {
	for i := range s.Members {
		s.Members[i].Verified = on
	}
	if on {
		if s.abft == nil {
			s.abft = &tensor.AbftStats{}
		}
	} else {
		s.abft = nil
	}
}

// Verified reports whether ABFT verification is prepared on this system.
func (s *System) Verified() bool { return s.abft != nil }

// AbftSink returns the system-wide verification sink, nil until
// PrepareVerified(true). Its fault hooks (tensor.AbftStats.Injector,
// RetryHook) reach every verified member inference of this system, and no
// other system's; install them before the classifications they strike.
func (s *System) AbftSink() *tensor.AbftStats { return s.abft }

// AbftCounts snapshots the verification telemetry: checksum comparisons,
// detected mismatches, and their corrected/uncorrectable resolutions. All
// zero when verification was never prepared.
func (s *System) AbftCounts() tensor.AbftCounts { return s.abft.Counts() }

// verifySink returns the stats sink for one member inference call — a
// fresh per-call AbftStats carrying the system sink's fault hooks when the
// member runs verified, so an uncorrectable outcome is attributed to
// exactly this inference rather than racing with concurrent members on
// the shared counters — or nil when the member runs unverified.
func (s *System) verifySink(m *Member) *tensor.AbftStats {
	if m.Verified && s.abft != nil {
		return &tensor.AbftStats{Injector: s.abft.Injector, RetryHook: s.abft.RetryHook}
	}
	return nil
}

// finishVerify folds a per-call sink into the system counters and reports
// whether this call hit an uncorrectable fault, in which case the caller
// marks the member's votes suspect. A nil sink (unverified call) reports
// false.
func (s *System) finishVerify(st *tensor.AbftStats) bool {
	if st == nil {
		return false
	}
	c := st.Counts()
	s.abft.Add(c)
	return c.Uncorrectable != 0
}

// suspectRow overwrites a probability row computed through an
// uncorrectable fault with the uniform distribution: the member abstains —
// it cannot claim confidence above chance, so with any confidence
// threshold above 1/classes it contributes no accepted vote — rather than
// submit a vote the checksums could not validate.
func suspectRow(row []float64) {
	u := 1.0 / float64(len(row))
	for i := range row {
		row[i] = u
	}
}
