package knnshapley

import (
	"encoding/json"
	"fmt"
	"strings"

	"knnshapley/internal/core"
)

// Bound selects the permutation-budget rule of the Monte-Carlo estimator.
// On the wire it travels as its lower-case name ("bennett",
// "bennett-approx", "hoeffding", "fixed").
type Bound int

// Budget rules, from tightest to loosest (see Figure 11).
const (
	// Bennett solves Theorem 5's Eq. (32) — the paper's improved bound,
	// roughly independent of N.
	Bennett Bound = iota
	// BennettApprox is the closed form T̃ = r²/ε²·log(2K/δ) (Eq. 34).
	BennettApprox
	// Hoeffding is the Section 2.2 baseline budget, growing with log N.
	Hoeffding
	// Fixed runs exactly MCOptions.T permutations.
	Fixed
)

// boundNames maps each Bound onto its wire name, in constant order.
var boundNames = [...]string{"bennett", "bennett-approx", "hoeffding", "fixed"}

// BoundNames returns the wire names of every budget rule — the enum the
// method schemas advertise.
func BoundNames() []string { return append([]string(nil), boundNames[:]...) }

// ParseBound maps a wire name back onto its Bound.
func ParseBound(name string) (Bound, error) {
	for i, n := range boundNames {
		if n == name {
			return Bound(i), nil
		}
	}
	return 0, fmt.Errorf("unknown bound %q (want %s)", name, strings.Join(BoundNames(), ", "))
}

// String returns the wire name of the bound.
func (b Bound) String() string {
	if b >= 0 && int(b) < len(boundNames) {
		return boundNames[b]
	}
	return fmt.Sprintf("bound(%d)", int(b))
}

// MarshalJSON encodes the bound as its wire name.
func (b Bound) MarshalJSON() ([]byte, error) {
	if b < 0 || int(b) >= len(boundNames) {
		return nil, fmt.Errorf("knnshapley: cannot encode bound %d", int(b))
	}
	return json.Marshal(b.String())
}

// UnmarshalJSON accepts the wire name (and, leniently, the integer
// constant) of a budget rule.
func (b *Bound) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := ParseBound(s)
		if err != nil {
			return err
		}
		*b = parsed
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("bound: want one of %s", strings.Join(BoundNames(), ", "))
	}
	if n < 0 || n >= len(boundNames) {
		return fmt.Errorf("bound %d outside [0,%d)", n, len(boundNames))
	}
	*b = Bound(n)
	return nil
}

// MCOptions configures Valuer.MonteCarlo and Valuer.SellersMC.
type MCOptions struct {
	// Eps, Delta set the (ε,δ)-approximation target (required unless
	// Bound == Fixed).
	Eps, Delta float64
	// Bound selects the budget rule (default Bennett).
	Bound Bound
	// T fixes the budget when Bound == Fixed, and caps it otherwise.
	T int
	// RangeHalfWidth is the half-width r of the per-step utility-difference
	// range [−r, r]; defaults to 1/K for unweighted classification and must
	// be set explicitly for other utilities when a statistical bound is
	// used.
	RangeHalfWidth float64
	// Heuristic stops a test point's sampling early once its estimates
	// stabilize within Eps/50 (the stopping rule of Section 6.2.2, applied
	// per test point so the sampler parallelizes across the engine).
	Heuristic bool
	// Seed drives the permutation stream.
	Seed uint64
}

func (o MCOptions) internal(cfg config) core.MCConfig {
	return core.MCConfig{
		Eps:            o.Eps,
		Delta:          o.Delta,
		Bound:          core.BoundKind(o.Bound),
		T:              o.T,
		RangeHalfWidth: o.RangeHalfWidth,
		Heuristic:      o.Heuristic,
		Seed:           o.Seed,
		Workers:        cfg.Workers,
		BatchSize:      cfg.BatchSize,
	}
}
