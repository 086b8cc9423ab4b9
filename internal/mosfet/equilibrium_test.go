package mosfet

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// eqResult is one Equilibrium solve with its currents in a fresh slice.
type eqResult struct {
	Vx, Itotal float64
	I          []float64
}

func solve(t *Tech, r float64, betas []float64, body bool) eqResult {
	res := eqResult{I: make([]float64, len(betas))}
	res.Vx, res.Itotal = Equilibrium(t, r, betas, body, res.I)
	return res
}

func TestEquilibriumIdealGround(t *testing.T) {
	tech := Tech07()
	res := solve(&tech, 0, []float64{4e-4, 2e-4}, true)
	if res.Vx != 0 {
		t.Fatalf("ideal ground Vx = %g, want 0", res.Vx)
	}
	// Currents are plain saturation currents at full drive.
	d := Device{Kind: NMOS, WL: 1, Vt0: tech.Vtn, Tech: &tech}
	want := 4e-4 / tech.KPn * d.IdsAlpha(tech.Vdd, 0)
	if math.Abs(res.I[0]-want)/want > 1e-9 {
		t.Errorf("I[0] = %g, want %g", res.I[0], want)
	}
}

func TestEquilibriumNoConduction(t *testing.T) {
	tech := Tech07()
	res := solve(&tech, 1e3, nil, true)
	if res.Vx != 0 || res.Itotal != 0 {
		t.Fatal("empty discharge set must give zero")
	}
	res = solve(&tech, 1e3, []float64{0, 0}, false)
	if res.Vx != 0 || res.Itotal != 0 {
		t.Fatal("all-zero betas must give zero")
	}
}

func TestEquilibriumKCL(t *testing.T) {
	// The solution must satisfy Vx/R == sum of gate currents.
	tech := Tech07()
	for _, body := range []bool{false, true} {
		for _, r := range []float64{100, 1e3, 1e4, 1e5} {
			betas := []float64{3e-4, 1e-4, 5e-4}
			res := solve(&tech, r, betas, body)
			ir := res.Vx / r
			if math.Abs(ir-res.Itotal) > 1e-6*math.Max(ir, res.Itotal)+1e-15 {
				t.Errorf("body=%v r=%g: KCL violated: Vx/R=%g sumI=%g", body, r, ir, res.Itotal)
			}
		}
	}
}

func TestEquilibriumKCLAlpha2Exact(t *testing.T) {
	tech := Tech07()
	tech.Alpha = 2
	betas := []float64{2e-4, 2e-4, 2e-4}
	res := solve(&tech, 2000, betas, false)
	// Analytic check against the quadratic.
	v := tech.Vdd - tech.Vtn
	lhs := res.Vx / 2000
	rhs := 0.5 * 6e-4 * (v - res.Vx) * (v - res.Vx)
	if math.Abs(lhs-rhs)/rhs > 1e-9 {
		t.Errorf("quadratic solution inexact: lhs=%g rhs=%g", lhs, rhs)
	}
}

// Property: Vx is bounded by [0, Vdd-Vtn] and monotone increasing in R
// and in total beta; per-gate current is monotone decreasing in R.
func TestEquilibriumMonotonicity(t *testing.T) {
	tech := Tech03()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		betas := make([]float64, n)
		for i := range betas {
			betas[i] = (0.1 + rng.Float64()) * 4e-4
		}
		r1 := 50 + rng.Float64()*5e3
		r2 := r1 * (1.1 + rng.Float64()*4)
		body := seed%2 == 0

		a := solve(&tech, r1, betas, body)
		b := solve(&tech, r2, betas, body)
		if a.Vx < 0 || a.Vx > tech.Vdd-tech.Vtn+1e-12 {
			return false
		}
		if b.Vx < a.Vx-1e-12 { // larger R -> more bounce
			return false
		}
		if b.I[0] > a.I[0]+1e-15 { // larger R -> less current per gate
			return false
		}
		// Adding a gate raises Vx.
		more := append(append([]float64(nil), betas...), 3e-4)
		c := solve(&tech, r1, more, body)
		return c.Vx >= a.Vx-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEquilibriumBodyEffectRaisesBounceImpact(t *testing.T) {
	// With body effect on, the same bounce costs more drive, so the
	// per-gate current must be lower (or equal) than without it.
	tech := Tech07()
	betas := []float64{4e-4, 4e-4, 4e-4, 4e-4}
	r := 2e3
	with := solve(&tech, r, betas, true)
	without := solve(&tech, r, betas, false)
	if with.I[0] >= without.I[0] {
		t.Errorf("body effect must reduce discharge current: with=%g without=%g", with.I[0], without.I[0])
	}
}

func TestEquilibriumManyGatesApproachSupplyLimit(t *testing.T) {
	// With an absurd number of gates the bounce approaches the point
	// where gates barely conduct; Vx stays below Vdd-Vt.
	tech := Tech07()
	betas := make([]float64, 500)
	for i := range betas {
		betas[i] = 1e-3
	}
	res := solve(&tech, 1e4, betas, false)
	lim := tech.Vdd - tech.Vtn
	if res.Vx >= lim || res.Vx < 0.9*lim {
		t.Errorf("Vx = %g, want just below %g", res.Vx, lim)
	}
}

func TestEquilibriumGeneralAlphaBisection(t *testing.T) {
	tech := Tech07()
	tech.Alpha = 1.4
	betas := []float64{3e-4, 3e-4}
	res := solve(&tech, 3e3, betas, false)
	// KCL must hold for the alpha-power RHS too.
	v := tech.Vdd - tech.Vtn
	k := 0.5 * 6e-4 * math.Pow(tech.Vdd, 2-tech.Alpha)
	rhs := k * math.Pow(v-res.Vx, tech.Alpha)
	lhs := res.Vx / 3e3
	if math.Abs(lhs-rhs)/rhs > 1e-6 {
		t.Errorf("alpha=1.4 KCL: lhs=%g rhs=%g", lhs, rhs)
	}
}

// betaBytes encodes a beta list as FuzzEquilibrium's raw input.
func betaBytes(betas ...float64) []byte {
	out := make([]byte, 8*len(betas))
	for i, b := range betas {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(b))
	}
	return out
}

// FuzzEquilibrium checks the Newton solve against a 200-step bisection
// of g(Vx) on the same bracket [0, Vdd-Vtn], over sleep resistances
// from 10 mOhm to 10 MOhm (or 0, ideal ground), 0-64 gates with betas
// of 0 or 1e-12 to 1e-2 A/V^2, alpha in [1, 2], body effect on and off
// and both technologies. Vx must agree to 1e-12 V, and KCL (Vx/R = sum
// of the gate currents) must hold to 1e-9 relative. Out-of-range alphas
// and betas are folded into range; testdata/fuzz keeps a case where a
// Newton step below Vx's ulp once fell back to bisection.
func FuzzEquilibrium(f *testing.F) {
	// The cases of the tests above.
	f.Add(false, true, 0.0, 1.8, betaBytes(4e-4, 2e-4))
	f.Add(false, true, 1e3, 1.8, betaBytes())
	f.Add(false, false, 1e3, 1.8, betaBytes(0, 0))
	for _, r := range []float64{100, 1e3, 1e4, 1e5} {
		f.Add(false, false, r, 1.8, betaBytes(3e-4, 1e-4, 5e-4))
		f.Add(false, true, r, 1.8, betaBytes(3e-4, 1e-4, 5e-4))
	}
	f.Add(false, false, 2000.0, 2.0, betaBytes(2e-4, 2e-4, 2e-4))
	f.Add(true, true, 700.0, 1.3, betaBytes(1e-4, 3e-4, 2e-4, 4e-4, 1.5e-4))
	f.Add(false, true, 2e3, 1.8, betaBytes(4e-4, 4e-4, 4e-4, 4e-4))
	f.Add(false, false, 2e3, 1.8, betaBytes(4e-4, 4e-4, 4e-4, 4e-4))
	many := make([]float64, 64)
	for i := range many {
		many[i] = 1e-3
	}
	f.Add(false, false, 1e4, 1.8, betaBytes(many...))
	f.Add(false, false, 3e3, 1.4, betaBytes(3e-4, 3e-4))

	f.Fuzz(func(t *testing.T, tech03, body bool, r, alpha float64, raw []byte) {
		if r != 0 && !(r >= 1e-2 && r <= 1e7) {
			t.Skip("sleep resistance out of range")
		}
		if !(alpha >= 1 && alpha <= 2) {
			alpha = 1 + math.Mod(math.Abs(alpha), 1) // NaN and Inf give NaN
			if math.IsNaN(alpha) {
				t.Skip("alpha is NaN")
			}
		}
		var betas []float64
		for i := 0; i+8 <= len(raw) && len(betas) < 64; i += 8 {
			b := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
			if b > 1e-2 {
				b = math.Mod(b, 1e-2)
			}
			if math.IsNaN(b) {
				t.Skip("beta is NaN")
			}
			if b < 1e-12 {
				b = 0 // no device is this weak; keeps the currents normal floats
			}
			betas = append(betas, b)
		}
		tech := Tech07()
		if tech03 {
			tech = Tech03()
		}
		tech.Alpha = alpha

		cur := make([]float64, len(betas))
		vx, itot := Equilibrium(&tech, r, betas, body, cur)
		btot, sum := 0.0, 0.0
		for j, b := range betas {
			btot += b
			sum += cur[j]
		}
		if sum != itot {
			t.Fatalf("currents sum to %g, total is %g", sum, itot)
		}
		if r == 0 || btot == 0 {
			if vx != 0 {
				t.Fatalf("r=%g btot=%g: Vx = %g, want 0", r, btot, vx)
			}
			return
		}

		k := 0.5 * btot * math.Pow(tech.Vdd, 2-alpha)
		g := func(v float64) float64 {
			vt := tech.Vtn
			if body {
				vt = tech.VtnBody(v)
			}
			if drive := tech.Vdd - v - vt; drive > 0 {
				return v/r - k*math.Pow(drive, alpha)
			}
			return v / r
		}
		lo, hi := 0.0, tech.Vdd-tech.Vtn
		for i := 0; i < 200; i++ {
			mid := 0.5 * (lo + hi)
			if g(mid) > 0 {
				hi = mid
			} else {
				lo = mid
			}
		}
		if ref := 0.5 * (lo + hi); math.Abs(vx-ref) > 1e-12 {
			t.Fatalf("Vx = %.17g, bisection %.17g (diff %.3g V)", vx, ref, vx-ref)
		}
		if ir := vx / r; math.Abs(ir-itot) > 1e-9*math.Max(ir, itot) {
			t.Fatalf("KCL: Vx/R = %.17g, sum of currents %.17g", ir, itot)
		}
	})
}
