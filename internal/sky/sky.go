// Package sky provides an equal-area pixelation of the visible (upper)
// hemisphere and posterior probability maps over it: the localization
// product a GRB mission distributes to follow-up observers (compare the
// HEALPix maps attached to GCN notices). Where internal/localize returns a
// single best direction with a Gaussian error radius, this package captures
// the full, possibly multi-modal likelihood surface and its credible
// regions.
package sky

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/recon"
)

// Grid is an equal-area pixelation of the upper hemisphere: NBands
// iso-polar bands, each divided into azimuth pixels in proportion to the
// band's solid angle, so pixel areas are approximately equal.
type Grid struct {
	NBands int
	// bandPix[i] is the number of azimuth pixels in band i.
	bandPix []int
	// bandStart[i] is the index of band i's first pixel.
	bandStart []int
	total     int
}

// NewGrid builds a grid with the given number of polar bands (resolution
// scales as ~2·NBands² pixels; 16 bands ≈ 3°-scale pixels).
func NewGrid(nBands int) *Grid {
	if nBands < 1 {
		panic("sky: need at least one band")
	}
	g := &Grid{NBands: nBands}
	g.bandPix = make([]int, nBands)
	g.bandStart = make([]int, nBands)
	// Band i spans polar angles [iπ/2N, (i+1)π/2N); its solid angle is
	// 2π(cosθ₀ − cosθ₁). Allocate pixels proportionally with at least 1.
	const targetPerBand = 4.0 // pixels per band-equivalent area unit
	for i := 0; i < nBands; i++ {
		t0 := float64(i) / float64(nBands) * math.Pi / 2
		t1 := float64(i+1) / float64(nBands) * math.Pi / 2
		area := 2 * math.Pi * (math.Cos(t0) - math.Cos(t1))
		// Normalize so the first band (smallest) gets a few pixels and the
		// total scales quadratically.
		n := int(math.Round(area / (2 * math.Pi / (targetPerBand * float64(nBands) * float64(nBands)))))
		if n < 1 {
			n = 1
		}
		g.bandPix[i] = n
		g.bandStart[i] = g.total
		g.total += n
	}
	return g
}

// NumPixels returns the pixel count.
func (g *Grid) NumPixels() int { return g.total }

// Dir returns the center direction of pixel i.
func (g *Grid) Dir(i int) geom.Vec {
	band := sort.Search(g.NBands, func(b int) bool {
		return g.bandStart[b]+g.bandPix[b] > i
	})
	j := i - g.bandStart[band]
	theta := (float64(band) + 0.5) / float64(g.NBands) * math.Pi / 2
	phi := (float64(j) + 0.5) / float64(g.bandPix[band]) * 2 * math.Pi
	return geom.FromSpherical(theta, phi)
}

// Find returns the pixel containing direction d (clamped to the upper
// hemisphere).
func (g *Grid) Find(d geom.Vec) int {
	theta := geom.Polar(d)
	if theta > math.Pi/2 {
		theta = math.Pi / 2
	}
	band := int(theta / (math.Pi / 2) * float64(g.NBands))
	if band >= g.NBands {
		band = g.NBands - 1
	}
	phi := geom.Azimuth(d)
	if phi < 0 {
		phi += 2 * math.Pi
	}
	j := int(phi / (2 * math.Pi) * float64(g.bandPix[band]))
	if j >= g.bandPix[band] {
		j = g.bandPix[band] - 1
	}
	return g.bandStart[band] + j
}

// PixelSr returns pixel i's solid angle in steradians (exact per band).
func (g *Grid) PixelSr(i int) float64 {
	band := sort.Search(g.NBands, func(b int) bool {
		return g.bandStart[b]+g.bandPix[b] > i
	})
	t0 := float64(band) / float64(g.NBands) * math.Pi / 2
	t1 := float64(band+1) / float64(g.NBands) * math.Pi / 2
	return 2 * math.Pi * (math.Cos(t0) - math.Cos(t1)) / float64(g.bandPix[band])
}

// Map is a log-likelihood surface over a grid.
type Map struct {
	Grid *Grid
	LogL []float64
}

// LikelihoodEvaluator returns the rings' joint robust log-likelihood as a
// function of direction — the continuous surface that Likelihood samples
// onto a grid and that the hierarchical payload builder (internal/skymap)
// samples adaptively.
func LikelihoodEvaluator(cfg *localize.Config, rings []*recon.Ring) func(geom.Vec) float64 {
	return func(d geom.Vec) float64 {
		return localize.LogLikelihood(cfg, rings, d)
	}
}

// Likelihood evaluates the rings' joint robust log-likelihood at every
// pixel center.
func Likelihood(cfg *localize.Config, rings []*recon.Ring, g *Grid) *Map {
	eval := LikelihoodEvaluator(cfg, rings)
	m := &Map{Grid: g, LogL: make([]float64, g.NumPixels())}
	for i := range m.LogL {
		m.LogL[i] = eval(g.Dir(i))
	}
	return m
}

// MixtureLikelihood evaluates a background-aware joint log-likelihood: each
// ring contributes ln[(1−pᵢ)·exp(−pull²/2) + pᵢ·floor], where pᵢ is the
// ring's background probability (e.g. from the background network) and
// floor = exp(−RobustCap/2) is the density a background ring contributes
// anywhere on the sky. With pᵢ = 0 for all rings this reduces to a softened
// version of the robust capped likelihood; with honest (wide) ring widths
// it keeps residual background rings from biasing the map, which hard
// capping alone cannot once pulls shrink below the cap.
func MixtureLikelihood(cfg *localize.Config, rings []*recon.Ring, bkgProb []float64, g *Grid) *Map {
	eval := MixtureEvaluator(cfg, rings, bkgProb)
	m := &Map{Grid: g, LogL: make([]float64, g.NumPixels())}
	for i := range m.LogL {
		m.LogL[i] = eval(g.Dir(i))
	}
	return m
}

// MixtureEvaluator returns MixtureLikelihood's background-aware joint
// log-likelihood as a function of direction. It panics when bkgProb and
// rings disagree in length.
func MixtureEvaluator(cfg *localize.Config, rings []*recon.Ring, bkgProb []float64) func(geom.Vec) float64 {
	if len(bkgProb) != len(rings) {
		panic("sky: bkgProb length mismatch")
	}
	floor := math.Exp(-cfg.RobustCap / 2)
	// Even a ring the classifier is sure about has some probability of
	// being mis-reconstructed junk; this floor keeps any single ring from
	// vetoing a sky region outright (the mixture analogue of hard capping).
	const pMin = 0.02
	// Each ring's mixture weights do not depend on the direction: compute
	// 1−p and p·floor once per ring rather than once per evaluation.
	keep := make([]float64, len(rings))
	bkg := make([]float64, len(rings))
	for j, b := range bkgProb {
		p := pMin + (1-pMin)*b
		keep[j], bkg[j] = 1-p, p*floor
	}
	return func(d geom.Vec) float64 {
		var ll float64
		for j, r := range rings {
			pull := r.Pull(d)
			ll += math.Log(keep[j]*math.Exp(-pull*pull/2) + bkg[j])
		}
		return ll
	}
}

// Best returns the maximum-likelihood pixel direction and its log-likelihood.
func (m *Map) Best() (geom.Vec, float64) {
	bi, bl := 0, math.Inf(-1)
	for i, l := range m.LogL {
		if l > bl {
			bi, bl = i, l
		}
	}
	return m.Grid.Dir(bi), bl
}

// Posterior converts the log-likelihood surface to per-pixel posterior
// probabilities (flat prior over the visible sky, solid-angle weighted).
func (m *Map) Posterior() []float64 {
	out := make([]float64, len(m.LogL))
	// Subtract the max for numerical stability.
	mx := math.Inf(-1)
	for _, l := range m.LogL {
		mx = math.Max(mx, l)
	}
	var total float64
	for i, l := range m.LogL {
		out[i] = math.Exp(l-mx) * m.Grid.PixelSr(i)
		total += out[i]
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}

// CredibleRegion returns the smallest set of pixels whose posterior sums to
// at least p, highest-probability first. Equal-probability pixels at the
// credible boundary are ordered by pixel index, so the region is a pure
// function of the posterior — identical across runs and platforms even when
// the boundary falls inside a tie.
func (m *Map) CredibleRegion(p float64) []int {
	post := m.Posterior()
	idx := make([]int, len(post))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := post[idx[a]], post[idx[b]]
		if pa != pb {
			return pa > pb
		}
		return idx[a] < idx[b]
	})
	var out []int
	var acc float64
	for _, i := range idx {
		out = append(out, i)
		acc += post[i]
		if acc >= p {
			break
		}
	}
	return out
}

// CredibleAreaDeg2 returns the solid angle of the p credible region in
// square degrees — the headline number of a localization notice.
func (m *Map) CredibleAreaDeg2(p float64) float64 {
	var sr float64
	for _, i := range m.CredibleRegion(p) {
		sr += m.Grid.PixelSr(i)
	}
	const deg2PerSr = (180 / math.Pi) * (180 / math.Pi)
	return sr * deg2PerSr
}

// Contains reports whether direction d falls in the p credible region.
func (m *Map) Contains(d geom.Vec, p float64) bool {
	target := m.Grid.Find(d)
	for _, i := range m.CredibleRegion(p) {
		if i == target {
			return true
		}
	}
	return false
}

// Tempered returns a copy of the map with the log-likelihood divided by T:
// the standard posterior-tempering form of an empirical systematic-error
// inflation (T = 1 is the identity, the statistical-only map; larger T
// widens every credible region). A non-positive temperature is a caller
// bug — there is no physically meaningful T ≤ 0, and silently substituting
// one would hide a miscalibrated configuration — so it panics.
func (m *Map) Tempered(t float64) *Map {
	if t <= 0 {
		panic("sky: non-positive temperature")
	}
	out := &Map{Grid: m.Grid, LogL: make([]float64, len(m.LogL))}
	for i, l := range m.LogL {
		out.LogL[i] = l / t
	}
	return out
}

// String summarizes the map.
func (m *Map) String() string {
	best, ll := m.Best()
	return fmt.Sprintf("skymap[%d px, peak %v (logL %.1f), 90%% area %.1f deg²]",
		m.Grid.NumPixels(), best, ll, m.CredibleAreaDeg2(0.9))
}
