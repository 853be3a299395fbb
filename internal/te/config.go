package te

import (
	"fmt"
	"math"
)

// Config is a TE configuration: one split ratio per candidate path. Ratios of
// the paths serving the same SD pair must sum to 1 (the constraint
// Σ_{p∈P_sd} r_p = 1 of §3).
type Config struct {
	ps *PathSet
	// R holds the split ratio for each path, aligned with ps.Paths.
	R []float64
}

// NewConfig returns a configuration with all of each pair's traffic on its
// first (shortest) candidate path.
func NewConfig(ps *PathSet) *Config {
	c := &Config{ps: ps, R: make([]float64, ps.NumPaths())}
	for _, pp := range ps.PairPaths {
		c.R[pp[0]] = 1
	}
	return c
}

// UniformConfig returns a configuration splitting each pair's traffic evenly
// across its candidate paths (the maximal-hedging strategy of Fig. 3(d)).
func UniformConfig(ps *PathSet) *Config {
	c := &Config{ps: ps, R: make([]float64, ps.NumPaths())}
	for _, pp := range ps.PairPaths {
		w := 1 / float64(len(pp))
		for _, p := range pp {
			c.R[p] = w
		}
	}
	return c
}

// PathSet returns the path set this configuration is defined over.
func (c *Config) PathSet() *PathSet { return c.ps }

// Clone returns a deep copy.
func (c *Config) Clone() *Config {
	return &Config{ps: c.ps, R: append([]float64(nil), c.R...)}
}

// Validate checks that ratios are finite, non-negative and sum to 1 for each
// pair (within tolerance).
func (c *Config) Validate() error {
	if len(c.R) != c.ps.NumPaths() {
		return fmt.Errorf("te: ratio vector has %d entries, want %d", len(c.R), c.ps.NumPaths())
	}
	for p, r := range c.R {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < -1e-9 {
			return fmt.Errorf("te: ratio[%d] = %v invalid", p, r)
		}
	}
	for pi, pp := range c.ps.PairPaths {
		sum := 0.0
		for _, p := range pp {
			sum += c.R[p]
		}
		if math.Abs(sum-1) > 1e-6 {
			s, d := c.ps.Pairs.SD(pi)
			return fmt.Errorf("te: ratios of pair (%d,%d) sum to %v, want 1", s, d, sum)
		}
	}
	return nil
}

// Normalize rescales each pair's ratios to sum to 1 (projecting negative
// entries to 0 first); pairs whose ratios sum to 0 get a uniform split. This
// is the feasibility-enforcement step the paper applies to raw DNN outputs
// (§6, "can be easily enforced by normalizing the outputs").
func (c *Config) Normalize() {
	for _, pp := range c.ps.PairPaths {
		sum := 0.0
		for _, p := range pp {
			if c.R[p] < 0 {
				c.R[p] = 0
			}
			sum += c.R[p]
		}
		if sum <= 0 {
			w := 1 / float64(len(pp))
			for _, p := range pp {
				c.R[p] = w
			}
			continue
		}
		for _, p := range pp {
			c.R[p] /= sum
		}
	}
}

// MLU evaluates max link utilization for demand vector d.
func (c *Config) MLU(d []float64) float64 {
	m, _ := c.ps.MLU(d, c.R)
	return m
}
