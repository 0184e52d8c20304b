package decode

import (
	"errors"
	"fmt"
	"math"

	"mindful/internal/linalg"
)

// This file implements closed-loop decoder adaptation (CLDA) in the
// smoothbatch style: a bounded ring buffer collects (observation,
// intended-kinematics) pairs during use, and every RecalConfig.Every
// feeds the readout model is refit by ridge least squares over the
// buffer and blended into the live decoder,
//
//	θ ← (1−λ)·θ_old + λ·θ_batch
//
// so the decoder tracks tuning rotation, unit turnover and baseline
// walk (internal/drift) without ever pausing for an open-loop
// recalibration session. The refit path is allocation-free at steady
// state — every Gram matrix, inverse and scratch product is
// preallocated at construction and pinned by alloc_test.go — because it
// runs inside the serving tick loop.

// ErrUnsupportedDecoder is returned when a Recalibrator is asked to
// adapt a decoder kind it has no refit rule for (e.g. the DNN decoder).
var ErrUnsupportedDecoder = errors.New("decode: decoder kind does not support recalibration")

// RecalConfig parameterizes closed-loop recalibration.
type RecalConfig struct {
	// Buffer is the ring capacity in bins (default 64).
	Buffer int
	// Every refits after this many feeds (default 16).
	Every int
	// Blend is the smoothbatch λ in (0, 1]: the weight of the fresh
	// batch fit against the running model (default 0.5).
	Blend float64
	// Ridge regularizes the batch least squares (default 1e-6).
	Ridge float64
	// ProcessNoise is the diagonal state-noise prior used when the
	// steady-state gain of a FixedGain decoder is recomputed after a
	// readout refit (default 0.01).
	ProcessNoise float64
}

func (c RecalConfig) withDefaults() RecalConfig {
	if c.Buffer == 0 {
		c.Buffer = 64
	}
	if c.Every == 0 {
		c.Every = 16
	}
	if c.Blend == 0 {
		c.Blend = 0.5
	}
	if c.Ridge == 0 {
		c.Ridge = 1e-6
	}
	if c.ProcessNoise == 0 {
		c.ProcessNoise = 0.01
	}
	return c
}

// Validate rejects unusable recalibration parameters.
func (c RecalConfig) Validate() error {
	c = c.withDefaults()
	if c.Buffer < 4 {
		return fmt.Errorf("decode: recal buffer %d too small (need ≥ 4)", c.Buffer)
	}
	if c.Every < 1 {
		return fmt.Errorf("decode: recal period %d must be positive", c.Every)
	}
	if c.Every > c.Buffer {
		return fmt.Errorf("decode: recal period %d exceeds buffer %d", c.Every, c.Buffer)
	}
	if !(c.Blend > 0 && c.Blend <= 1) || math.IsNaN(c.Blend) {
		return fmt.Errorf("decode: recal blend %g outside (0, 1]", c.Blend)
	}
	if c.Ridge < 0 || math.IsNaN(c.Ridge) || math.IsInf(c.Ridge, 0) {
		return fmt.Errorf("decode: recal ridge %g invalid", c.Ridge)
	}
	if c.ProcessNoise <= 0 || math.IsNaN(c.ProcessNoise) || math.IsInf(c.ProcessNoise, 0) {
		return fmt.Errorf("decode: recal process noise %g must be positive", c.ProcessNoise)
	}
	return nil
}

// Recalibrator adapts a linear decoder (Kalman, FixedGain or Wiener)
// online from a bounded buffer of supervised pairs.
type Recalibrator struct {
	cfg RecalConfig
	dec Decoder

	ds, do int // state and observation dimensions
	minFit int // feeds required before the first refit

	// Supervision rings, cap rows each; head is the next write slot.
	obsRing []float64 // cap × do
	intRing []float64 // cap × ds
	count   int
	head    int

	sinceRefit int
	refits     int64

	// Readout-fit scratch: Hᵀ = (XᵀX + λI)⁻¹·XᵀZ over the buffer.
	gram, gramInv, gramWork linalg.Matrix // ds×ds
	xz, hNewT               linalg.Matrix // ds×do
	qNew                    linalg.Matrix // do×do
	zHat                    []float64     // do

	// FixedGain extras: blended-H candidate, running Q estimate and the
	// in-place Riccati recursion that recomputes the steady-state gain.
	hBlend   linalg.Matrix // do×ds
	qEst     linalg.Matrix // do×do
	wPrior   linalg.Matrix // ds×ds
	aT, hT   linalg.Matrix
	ricP     linalg.Matrix // ds×ds
	ricPPred linalg.Matrix // ds×ds
	ricT1    linalg.Matrix // ds×ds
	ricT2    linalg.Matrix // ds×ds
	ricS     linalg.Matrix // do×do
	ricSInv  linalg.Matrix // do×do
	ricWork  linalg.Matrix // do×do
	ricDsdo  linalg.Matrix // ds×do
	ricG     linalg.Matrix // ds×do
	ricGPrev linalg.Matrix // ds×do
	ricDods  linalg.Matrix // do×ds

	// Wiener extras: chronological unroll of the rings plus the
	// lag-stacked design and its Gram system (doL = do·Lags).
	seqObs, seqInt  []float64
	design, designT linalg.Matrix // rows×doL / doL×rows (max shapes)
	target          linalg.Matrix // rows×ds
	wGram, wGramInv linalg.Matrix // doL×doL
	wGramWork       linalg.Matrix // doL×doL
	wxz, wNewT      linalg.Matrix // doL×ds
}

// NewRecalibrator wraps d with closed-loop adaptation. The decoder is
// mutated in place by refits; d must be one of the linear decoder types.
func NewRecalibrator(d Decoder, cfg RecalConfig) (*Recalibrator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r := &Recalibrator{cfg: cfg, dec: d}
	switch dd := d.(type) {
	case *Kalman:
		r.ds, r.do = dd.A.Rows, dd.H.Rows
		r.minFit = maxInt(4, r.ds+2)
	case *FixedGain:
		r.ds, r.do = dd.A.Rows, dd.H.Rows
		r.minFit = maxInt(4, r.ds+2)
	case *Wiener:
		r.ds, r.do = dd.W.Rows, dd.obsDim()
		r.minFit = maxInt(4, dd.Lags+2)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedDecoder, d)
	}
	if r.minFit > cfg.Buffer {
		return nil, fmt.Errorf("decode: recal buffer %d below minimum fit size %d", cfg.Buffer, r.minFit)
	}
	cap := cfg.Buffer
	r.obsRing = make([]float64, cap*r.do)
	r.intRing = make([]float64, cap*r.ds)

	switch dd := d.(type) {
	case *Kalman, *FixedGain:
		r.gram = linalg.NewMatrix(r.ds, r.ds)
		r.gramInv = linalg.NewMatrix(r.ds, r.ds)
		r.gramWork = linalg.NewMatrix(r.ds, r.ds)
		r.xz = linalg.NewMatrix(r.ds, r.do)
		r.hNewT = linalg.NewMatrix(r.ds, r.do)
		r.qNew = linalg.NewMatrix(r.do, r.do)
		r.zHat = make([]float64, r.do)
		if fg, ok := dd.(*FixedGain); ok {
			r.hBlend = linalg.NewMatrix(r.do, r.ds)
			// qEst starts at the same floor FitKalman applies to Q, so
			// the first Riccati recursion is well-posed before any batch
			// residuals have been blended in.
			r.qEst = linalg.NewMatrix(r.do, r.do)
			for i := 0; i < r.do; i++ {
				r.qEst.Set(i, i, 1e-6)
			}
			r.wPrior = linalg.NewMatrix(r.ds, r.ds)
			for i := 0; i < r.ds; i++ {
				r.wPrior.Set(i, i, cfg.ProcessNoise)
			}
			r.aT = fg.A.T()
			r.hT = linalg.NewMatrix(r.ds, r.do)
			linalg.TInto(r.hT, fg.H)
			r.ricP = linalg.NewMatrix(r.ds, r.ds)
			r.ricPPred = linalg.NewMatrix(r.ds, r.ds)
			r.ricT1 = linalg.NewMatrix(r.ds, r.ds)
			r.ricT2 = linalg.NewMatrix(r.ds, r.ds)
			r.ricS = linalg.NewMatrix(r.do, r.do)
			r.ricSInv = linalg.NewMatrix(r.do, r.do)
			r.ricWork = linalg.NewMatrix(r.do, r.do)
			r.ricDsdo = linalg.NewMatrix(r.ds, r.do)
			r.ricG = linalg.NewMatrix(r.ds, r.do)
			r.ricGPrev = linalg.NewMatrix(r.ds, r.do)
			r.ricDods = linalg.NewMatrix(r.do, r.ds)
		}
	case *Wiener:
		doL := r.do * dd.Lags
		maxRows := cap - dd.Lags + 1
		r.seqObs = make([]float64, cap*r.do)
		r.seqInt = make([]float64, cap*r.ds)
		r.design = linalg.NewMatrix(maxRows, doL)
		r.designT = linalg.NewMatrix(doL, maxRows)
		r.target = linalg.NewMatrix(maxRows, r.ds)
		r.wGram = linalg.NewMatrix(doL, doL)
		r.wGramInv = linalg.NewMatrix(doL, doL)
		r.wGramWork = linalg.NewMatrix(doL, doL)
		r.wxz = linalg.NewMatrix(doL, r.ds)
		r.wNewT = linalg.NewMatrix(doL, r.ds)
	}
	return r, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Decoder returns the adapted decoder.
func (r *Recalibrator) Decoder() Decoder { return r.dec }

// Refits returns the number of refits applied so far.
func (r *Recalibrator) Refits() int64 { return r.refits }

// Feed records one supervised pair and refits the decoder when the
// period elapses. It reports whether a refit was applied. A refit that
// fails (singular system, diverging gain recursion) leaves the decoder
// untouched and surfaces the error; the buffer keeps accumulating.
func (r *Recalibrator) Feed(obs, intent []float64) (bool, error) {
	if err := checkObservation(obs, r.do); err != nil {
		return false, err
	}
	if err := checkObservation(intent, r.ds); err != nil {
		return false, fmt.Errorf("decode: recal intent: %w", err)
	}
	cap := r.cfg.Buffer
	copy(r.obsRing[r.head*r.do:(r.head+1)*r.do], obs)
	copy(r.intRing[r.head*r.ds:(r.head+1)*r.ds], intent)
	r.head = (r.head + 1) % cap
	if r.count < cap {
		r.count++
	}
	r.sinceRefit++
	if r.sinceRefit < r.cfg.Every || r.count < r.minFit {
		return false, nil
	}
	r.sinceRefit = 0
	if err := r.refit(); err != nil {
		return false, err
	}
	r.refits++
	return true, nil
}

func (r *Recalibrator) refit() error {
	switch d := r.dec.(type) {
	case *Kalman:
		return r.refitKalman(d)
	case *FixedGain:
		return r.refitFixedGain(d)
	case *Wiener:
		return r.refitWiener(d)
	}
	return ErrUnsupportedDecoder
}

// fitReadout solves Hᵀ_batch = (XᵀX + λI)⁻¹·XᵀZ over the buffer into
// r.hNewT and the batch residual covariance into r.qNew. The Gram
// accumulation is order-invariant, so the rings are consumed in place.
func (r *Recalibrator) fitReadout() error {
	for i := range r.gram.Data {
		r.gram.Data[i] = 0
	}
	for i := range r.xz.Data {
		r.xz.Data[i] = 0
	}
	for t := 0; t < r.count; t++ {
		x := r.intRing[t*r.ds : (t+1)*r.ds]
		z := r.obsRing[t*r.do : (t+1)*r.do]
		for i, xi := range x {
			for j, xj := range x {
				r.gram.Data[i*r.ds+j] += xi * xj
			}
			for j, zj := range z {
				r.xz.Data[i*r.do+j] += xi * zj
			}
		}
	}
	for i := 0; i < r.ds; i++ {
		r.gram.Data[i*r.ds+i] += r.cfg.Ridge
	}
	if err := linalg.InverseInto(r.gramInv, r.gramWork, r.gram); err != nil {
		return fmt.Errorf("decode: recal readout fit: %w", err)
	}
	linalg.MulInto(r.hNewT, r.gramInv, r.xz)

	for i := range r.qNew.Data {
		r.qNew.Data[i] = 0
	}
	for t := 0; t < r.count; t++ {
		x := r.intRing[t*r.ds : (t+1)*r.ds]
		z := r.obsRing[t*r.do : (t+1)*r.do]
		for j := 0; j < r.do; j++ {
			s := 0.0
			for i, xi := range x {
				s += xi * r.hNewT.Data[i*r.do+j]
			}
			r.zHat[j] = z[j] - s
		}
		// Upper triangle only: ri·rj and rj·ri are the same bits, and
		// each entry still sums over t in ring order.
		for i, ri := range r.zHat {
			row := r.qNew.Data[i*r.do : (i+1)*r.do]
			for j := i; j < r.do; j++ {
				row[j] += ri * r.zHat[j]
			}
		}
	}
	for i := 0; i < r.do; i++ {
		for j := i + 1; j < r.do; j++ {
			r.qNew.Data[j*r.do+i] = r.qNew.Data[i*r.do+j]
		}
	}
	n := float64(r.count)
	for i := range r.qNew.Data {
		r.qNew.Data[i] /= n
	}
	for i := 0; i < r.do; i++ {
		r.qNew.Data[i*r.do+i] += 1e-6
	}
	return nil
}

func (r *Recalibrator) refitKalman(k *Kalman) error {
	if err := r.fitReadout(); err != nil {
		return err
	}
	l := r.cfg.Blend
	for i := 0; i < r.do; i++ {
		for j := 0; j < r.ds; j++ {
			k.H.Data[i*r.ds+j] = (1-l)*k.H.Data[i*r.ds+j] + l*r.hNewT.Data[j*r.do+i]
		}
	}
	for i := range k.Q.Data {
		k.Q.Data[i] = (1-l)*k.Q.Data[i] + l*r.qNew.Data[i]
	}
	// The Step scratch caches Hᵀ; it must track the blended H.
	k.ensureScratch()
	linalg.TInto(k.s.hT, k.H)
	return nil
}

func (r *Recalibrator) refitFixedGain(f *FixedGain) error {
	if err := r.fitReadout(); err != nil {
		return err
	}
	l := r.cfg.Blend
	for i := 0; i < r.do; i++ {
		for j := 0; j < r.ds; j++ {
			r.hBlend.Data[i*r.ds+j] = (1-l)*f.H.Data[i*r.ds+j] + l*r.hNewT.Data[j*r.do+i]
		}
	}
	// Candidate Q: the running estimate blended toward the batch
	// residual covariance. Committed only if the gain recursion converges.
	for i := range r.qNew.Data {
		r.qNew.Data[i] = (1-l)*r.qEst.Data[i] + l*r.qNew.Data[i]
	}
	linalg.TInto(r.hT, r.hBlend)
	// In-place Riccati recursion to the steady-state gain for the
	// blended readout, mirroring Kalman.SteadyStateGain.
	linalg.IdentityInto(r.ricP)
	const maxIter, tol = 500, 1e-9
	converged := false
	for it := 0; it < maxIter; it++ {
		linalg.MulInto(r.ricT1, f.A, r.ricP)
		linalg.MulInto(r.ricPPred, r.ricT1, r.aT)
		linalg.AddInto(r.ricPPred, r.ricPPred, r.wPrior)
		linalg.MulInto(r.ricDods, r.hBlend, r.ricPPred)
		linalg.MulInto(r.ricS, r.ricDods, r.hT)
		linalg.AddInto(r.ricS, r.ricS, r.qNew)
		if err := linalg.InverseInto(r.ricSInv, r.ricWork, r.ricS); err != nil {
			return fmt.Errorf("decode: recal gain recursion: %w", err)
		}
		linalg.MulInto(r.ricDsdo, r.ricPPred, r.hT)
		linalg.MulInto(r.ricG, r.ricDsdo, r.ricSInv)
		linalg.MulInto(r.ricT1, r.ricG, r.hBlend)
		linalg.IdentityInto(r.ricT2)
		linalg.SubInto(r.ricT2, r.ricT2, r.ricT1)
		linalg.MulInto(r.ricP, r.ricT2, r.ricPPred)
		if it > 0 && linalg.MaxAbsDiff(r.ricG, r.ricGPrev) < tol {
			converged = true
			break
		}
		linalg.CopyInto(r.ricGPrev, r.ricG)
	}
	if !converged {
		return errors.New("decode: recal gain recursion did not converge")
	}
	linalg.CopyInto(f.H, r.hBlend)
	linalg.CopyInto(f.K, r.ricG)
	linalg.CopyInto(r.qEst, r.qNew)
	return nil
}

func (r *Recalibrator) refitWiener(w *Wiener) error {
	// Unroll the rings oldest-first: lag stacking needs chronology.
	start := 0
	if r.count == r.cfg.Buffer {
		start = r.head
	}
	for t := 0; t < r.count; t++ {
		src := (start + t) % r.cfg.Buffer
		copy(r.seqObs[t*r.do:(t+1)*r.do], r.obsRing[src*r.do:(src+1)*r.do])
		copy(r.seqInt[t*r.ds:(t+1)*r.ds], r.intRing[src*r.ds:(src+1)*r.ds])
	}
	lags := w.Lags
	rows := r.count - lags + 1
	if rows < 2 {
		return fmt.Errorf("decode: recal buffer %d too short for %d lags", r.count, lags)
	}
	doL := r.do * lags
	design := linalg.Matrix{Rows: rows, Cols: doL, Data: r.design.Data[:rows*doL]}
	target := linalg.Matrix{Rows: rows, Cols: r.ds, Data: r.target.Data[:rows*r.ds]}
	for t := 0; t < rows; t++ {
		at := t + lags - 1
		for lag := 0; lag < lags; lag++ {
			copy(design.Data[t*doL+lag*r.do:t*doL+(lag+1)*r.do],
				r.seqObs[(at-lag)*r.do:(at-lag+1)*r.do])
		}
		copy(target.Data[t*r.ds:(t+1)*r.ds], r.seqInt[at*r.ds:(at+1)*r.ds])
	}
	designT := linalg.Matrix{Rows: doL, Cols: rows, Data: r.designT.Data[:doL*rows]}
	linalg.TInto(designT, design)
	linalg.MulInto(r.wGram, designT, design)
	for i := 0; i < doL; i++ {
		r.wGram.Data[i*doL+i] += r.cfg.Ridge
	}
	if err := linalg.InverseInto(r.wGramInv, r.wGramWork, r.wGram); err != nil {
		return fmt.Errorf("decode: recal Wiener fit: %w", err)
	}
	linalg.MulInto(r.wxz, designT, target)
	linalg.MulInto(r.wNewT, r.wGramInv, r.wxz)
	l := r.cfg.Blend
	for i := 0; i < r.ds; i++ {
		for j := 0; j < doL; j++ {
			w.W.Data[i*doL+j] = (1-l)*w.W.Data[i*doL+j] + l*r.wNewT.Data[j*r.ds+i]
		}
	}
	return nil
}

// ModelState is the refit-mutated model of an adapted decoder, the part
// of decoder state a fresh construction cannot reproduce. Fields not
// applicable to the decoder kind are nil.
type ModelState struct {
	H []float64 // Kalman/FixedGain readout, do×ds row-major
	Q []float64 // Kalman observation noise / FixedGain running estimate, do×do
	W []float64 // Wiener weights, ds×(do·Lags)
	K []float64 // FixedGain steady-state gain, ds×do
}

// ModelState captures the decoder matrices refits mutate.
func (r *Recalibrator) ModelState() ModelState {
	var st ModelState
	switch d := r.dec.(type) {
	case *Kalman:
		st.H = append([]float64(nil), d.H.Data...)
		st.Q = append([]float64(nil), d.Q.Data...)
	case *FixedGain:
		st.H = append([]float64(nil), d.H.Data...)
		st.Q = append([]float64(nil), r.qEst.Data...)
		st.K = append([]float64(nil), d.K.Data...)
	case *Wiener:
		st.W = append([]float64(nil), d.W.Data...)
	}
	return st
}

// RestoreModel overwrites the decoder's refit-mutated matrices (and the
// caches derived from them) from a snapshot.
func (r *Recalibrator) RestoreModel(st ModelState) error {
	for name, vals := range map[string][]float64{"H": st.H, "Q": st.Q, "W": st.W, "K": st.K} {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("decode: non-finite model state %s[%d] = %v", name, i, v)
			}
		}
	}
	switch d := r.dec.(type) {
	case *Kalman:
		if len(st.H) != r.do*r.ds || len(st.Q) != r.do*r.do {
			return fmt.Errorf("decode: Kalman model state dims %d/%d != %d/%d",
				len(st.H), len(st.Q), r.do*r.ds, r.do*r.do)
		}
		copy(d.H.Data, st.H)
		copy(d.Q.Data, st.Q)
		d.ensureScratch()
		linalg.TInto(d.s.hT, d.H)
	case *FixedGain:
		if len(st.H) != r.do*r.ds || len(st.Q) != r.do*r.do || len(st.K) != r.ds*r.do {
			return fmt.Errorf("decode: FixedGain model state dims %d/%d/%d != %d/%d/%d",
				len(st.H), len(st.Q), len(st.K), r.do*r.ds, r.do*r.do, r.ds*r.do)
		}
		copy(d.H.Data, st.H)
		copy(r.qEst.Data, st.Q)
		copy(d.K.Data, st.K)
		linalg.TInto(r.hT, d.H)
	case *Wiener:
		if len(st.W) != len(d.W.Data) {
			return fmt.Errorf("decode: Wiener model state dim %d != %d", len(st.W), len(d.W.Data))
		}
		copy(d.W.Data, st.W)
	}
	return nil
}

// RecalState is the recalibrator's serializable mid-run state: the
// supervision rings and refit counters. The decoder model itself is
// captured separately by ModelState.
type RecalState struct {
	Obs        []float64
	Intent     []float64
	Count      int
	Head       int
	SinceRefit int
	Refits     int64
}

// State captures the recalibrator's mid-run state.
func (r *Recalibrator) State() RecalState {
	return RecalState{
		Obs:        append([]float64(nil), r.obsRing...),
		Intent:     append([]float64(nil), r.intRing...),
		Count:      r.count,
		Head:       r.head,
		SinceRefit: r.sinceRefit,
		Refits:     r.refits,
	}
}

// RestoreState overwrites the recalibrator's mid-run state.
func (r *Recalibrator) RestoreState(st RecalState) error {
	cap := r.cfg.Buffer
	if len(st.Obs) != cap*r.do || len(st.Intent) != cap*r.ds {
		return fmt.Errorf("decode: recal state rings %d/%d != %d/%d",
			len(st.Obs), len(st.Intent), cap*r.do, cap*r.ds)
	}
	if st.Count < 0 || st.Count > cap || st.Head < 0 || st.Head >= cap {
		return fmt.Errorf("decode: recal state cursor %d/%d outside buffer %d", st.Count, st.Head, cap)
	}
	if st.SinceRefit < 0 || st.SinceRefit > r.cfg.Every || st.Refits < 0 {
		return fmt.Errorf("decode: recal state counters %d/%d invalid", st.SinceRefit, st.Refits)
	}
	for _, v := range st.Obs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("decode: non-finite recal observation ring value %v", v)
		}
	}
	for _, v := range st.Intent {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("decode: non-finite recal intent ring value %v", v)
		}
	}
	copy(r.obsRing, st.Obs)
	copy(r.intRing, st.Intent)
	r.count = st.Count
	r.head = st.Head
	r.sinceRefit = st.SinceRefit
	r.refits = st.Refits
	return nil
}
