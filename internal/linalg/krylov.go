package linalg

import "fmt"

// Preconditioner approximates A^{-1}: Apply writes M^{-1} r into z without
// allocating (z never aliases r in this package's solvers). ILU0 implements
// it; nil means no preconditioning.
type Preconditioner interface {
	Apply(z, r Vector)
}

// SolvePrecBiCGSTAB solves A x = b with right-preconditioned BiCGSTAB:
// the Krylov space is built on A M^{-1}, so the residual the convergence
// test sees is the true residual of the original system. With m == nil it
// degenerates to plain BiCGSTAB. The iteration count it reports is the
// number of BiCGSTAB steps (each costing two matvecs and two
// preconditioner applications).
func SolvePrecBiCGSTAB(a *CSR, b Vector, m Preconditioner, opts IterOpts) (Vector, IterResult, error) {
	opts.defaults()
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, IterResult{}, fmt.Errorf("linalg: SolvePrecBiCGSTAB dimension mismatch")
	}
	x := NewVector(n)
	if opts.X0 != nil {
		if len(opts.X0) != n {
			return nil, IterResult{}, fmt.Errorf("linalg: SolvePrecBiCGSTAB X0 length %d, want %d", len(opts.X0), n)
		}
		copy(x, opts.X0)
	}
	bNorm := b.Norm2()
	if bNorm == 0 {
		bNorm = 1
	}
	r := NewVector(n)
	a.MulVecTo(r, x)
	r.Sub(b, r)
	if rn := r.Norm2() / bNorm; rn <= opts.Tol {
		return x, IterResult{Iterations: 0, Residual: rn}, nil
	}
	rHat := r.Clone()
	rho, alpha, omega := 1.0, 1.0, 1.0
	v := NewVector(n)
	p := NewVector(n)
	pHat := NewVector(n)
	s := NewVector(n)
	sHat := NewVector(n)
	t := NewVector(n)
	apply := func(z, r Vector) {
		if m != nil {
			m.Apply(z, r)
		} else {
			copy(z, r)
		}
	}
	// On an exact Lanczos breakdown (rho or rHat.v hitting zero with the
	// residual still above tolerance) the method is restarted from the
	// current iterate with a fresh shadow residual rHat = r — the standard
	// recovery — instead of failing; a second breakdown at the same
	// iteration means no progress is possible and errors out.
	lastRestart := -1
	restart := func(it int, what string) error {
		if it == lastRestart {
			return fmt.Errorf("linalg: PrecBiCGSTAB breakdown (%s) at iteration %d", what, it)
		}
		lastRestart = it
		a.MulVecTo(r, x)
		r.Sub(b, r)
		copy(rHat, r)
		rho, alpha, omega = 1, 1, 1
		v.Fill(0)
		p.Fill(0)
		return nil
	}
	for it := 1; it <= opts.MaxIter; it++ {
		rhoNext := rHat.Dot(r)
		if rhoNext == 0 {
			if rn := r.Norm2() / bNorm; rn <= opts.Tol {
				return x, IterResult{Iterations: it, Residual: rn}, nil
			}
			if err := restart(it, "rho=0"); err != nil {
				return x, IterResult{Iterations: it, Residual: r.Norm2() / bNorm}, err
			}
			rhoNext = rHat.Dot(r)
			if rhoNext == 0 {
				return x, IterResult{Iterations: it, Residual: r.Norm2() / bNorm},
					fmt.Errorf("linalg: PrecBiCGSTAB breakdown (rho=0) at iteration %d", it)
			}
		}
		beta := (rhoNext / rho) * (alpha / omega)
		rho = rhoNext
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
		apply(pHat, p)
		a.MulVecTo(v, pHat)
		den := rHat.Dot(v)
		if den == 0 {
			return x, IterResult{Iterations: it, Residual: r.Norm2() / bNorm},
				fmt.Errorf("linalg: PrecBiCGSTAB breakdown (rHat.v=0) at iteration %d", it)
		}
		alpha = rho / den
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if sn := s.Norm2() / bNorm; sn <= opts.Tol {
			x.AXPY(alpha, pHat)
			return x, IterResult{Iterations: it, Residual: sn}, nil
		}
		apply(sHat, s)
		a.MulVecTo(t, sHat)
		tt := t.Dot(t)
		if tt == 0 {
			return x, IterResult{Iterations: it, Residual: s.Norm2() / bNorm},
				fmt.Errorf("linalg: PrecBiCGSTAB breakdown (t=0) at iteration %d", it)
		}
		omega = t.Dot(s) / tt
		for i := range x {
			x[i] += alpha*pHat[i] + omega*sHat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		if rn := r.Norm2() / bNorm; rn <= opts.Tol {
			return x, IterResult{Iterations: it, Residual: rn}, nil
		}
		if omega == 0 {
			return x, IterResult{Iterations: it, Residual: r.Norm2() / bNorm},
				fmt.Errorf("linalg: PrecBiCGSTAB breakdown (omega=0) at iteration %d", it)
		}
	}
	return x, IterResult{Iterations: opts.MaxIter, Residual: r.Norm2() / bNorm}, ErrNoConvergence
}
