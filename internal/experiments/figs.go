package experiments

import (
	"io"
	"math"
	"math/rand"
	"time"

	"fibcomp/internal/bounds"
	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/pdag"
	"fibcomp/internal/xbw"
)

// Fig5Point is one barrier setting of Fig 5: memory footprint versus
// mean update time under the random and BGP-inspired sequences, with
// the mean visited-node count (pdag.DAG.UpdateVisits) per update as
// the timer-free measure of the same cost.
type Fig5Point struct {
	Lambda      int
	ModelBytes  int
	RandomUS    float64 // mean µs per random update
	BGPUS       float64 // mean µs per BGP-like update
	RandomNodes float64 // mean nodes visited per random update
	BGPNodes    float64 // mean nodes visited per BGP-like update
}

// RunFig5 regenerates Fig 5 on the taz instance: sweep λ over [0, 32],
// measuring the model memory footprint and the mean per-update latency
// over `runs` runs of `updates` updates each (the paper uses 15×7500).
func RunFig5(cfg Config, lambdas []int, runs, updates int, w io.Writer) ([]Fig5Point, error) {
	t, _, err := cfg.generate("taz")
	if err != nil {
		return nil, err
	}
	if lambdas == nil {
		lambdas = []int{0, 2, 4, 6, 8, 10, 11, 12, 14, 16, 20, 24, 28, 32}
	}
	fprintf(w, "Fig 5: update time vs memory footprint on taz (scale %.3g, %d×%d updates)\n",
		cfg.Scale, runs, updates)
	fprintf(w, "%3s %12s %14s %14s %14s %14s\n", "λ", "mem[bytes]", "random[µs]", "bgp[µs]", "random[nodes]", "bgp[nodes]")
	var pts []Fig5Point
	for _, lambda := range lambdas {
		p := Fig5Point{Lambda: lambda}
		d, err := pdag.Build(t, lambda)
		if err != nil {
			return nil, err
		}
		p.ModelBytes = d.ModelBytes()
		p.RandomUS, p.RandomNodes, err = measureUpdates(cfg, t, lambda, runs, updates, false)
		if err != nil {
			return nil, err
		}
		p.BGPUS, p.BGPNodes, err = measureUpdates(cfg, t, lambda, runs, updates, true)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
		fprintf(w, "%3d %12d %14.2f %14.2f %14.1f %14.1f\n", p.Lambda, p.ModelBytes, p.RandomUS, p.BGPUS, p.RandomNodes, p.BGPNodes)
	}
	return pts, nil
}

// measureUpdates replays `runs` seeded update sequences against fresh
// DAGs, returning the mean µs and the mean visited-node count per
// update.
func measureUpdates(cfg Config, t *fib.Table, lambda, runs, updates int, bgp bool) (us, nodes float64, err error) {
	var total time.Duration
	var visits uint64
	count := 0
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(run*7919)))
		var us []gen.Update
		if bgp {
			us = gen.BGPUpdates(rng, t, updates)
		} else {
			us = gen.RandomUpdates(rng, t, updates)
		}
		d, err := pdag.Build(t, lambda)
		if err != nil {
			return 0, 0, err
		}
		v0 := d.UpdateVisits()
		start := time.Now()
		for _, u := range us {
			if u.Withdraw {
				d.Delete(u.Addr, u.Len)
			} else if err := d.Set(u.Addr, u.Len, u.NextHop); err != nil {
				return 0, 0, err
			}
		}
		total += time.Since(start)
		visits += d.UpdateVisits() - v0
		count += len(us)
	}
	return float64(total.Microseconds()) / float64(count), float64(visits) / float64(count), nil
}

// Fig6Point is one Bernoulli parameter of Fig 6: FIB entropy versus
// compressed sizes and compression efficiency ν = pDAG bits / E.
type Fig6Point struct {
	P      float64
	H0     float64
	EKB    float64
	XBWKB  float64
	PDAGKB float64
	Nu     float64
}

// RunFig6 regenerates Fig 6: the access(d) instance is relabeled with
// Bernoulli(p) next-hops for p sweeping [0.005, 0.5], and the XBW-b
// and prefix-DAG (λ=11) sizes are measured against the FIB entropy.
func RunFig6(cfg Config, ps []float64, w io.Writer) ([]Fig6Point, error) {
	base, _, err := cfg.generate("access(d)")
	if err != nil {
		return nil, err
	}
	if ps == nil {
		ps = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	fprintf(w, "Fig 6: size and efficiency vs H0, Bernoulli next-hops on access(d) (scale %.3g)\n", cfg.Scale)
	fprintf(w, "%7s %7s %9s %9s %9s %6s\n", "p", "H0", "E[KB]", "XBW[KB]", "pDAG[KB]", "ν")
	var pts []Fig6Point
	for _, p := range ps {
		t := gen.Relabel(rng, base, gen.Bernoulli(1-p)) // label 2 w.p. p
		s := leafStats(t)
		x, err := xbw.New(t)
		if err != nil {
			return nil, err
		}
		d, err := pdag.Build(t, 11)
		if err != nil {
			return nil, err
		}
		pdagBytes := d.ModelBytes()
		pt := Fig6Point{
			P:      p,
			H0:     s.H0,
			EKB:    kb(s.Entropy),
			XBWKB:  kb(float64(x.SizeBits())),
			PDAGKB: float64(pdagBytes) / 1024,
			Nu:     float64(pdagBytes) * 8 / s.Entropy,
		}
		pts = append(pts, pt)
		fprintf(w, "%7.3f %7.3f %9.1f %9.1f %9.1f %6.2f\n",
			pt.P, pt.H0, pt.EKB, pt.XBWKB, pt.PDAGKB, pt.Nu)
	}
	return pts, nil
}

// Fig7Point is one Bernoulli parameter of Fig 7 (the string model).
type Fig7Point struct {
	P      float64
	H0     float64
	SizeKB float64
	Nu     float64 // DAG bits / (n·H0)
	Lambda int
}

// RunFig7 regenerates Fig 7: a complete binary trie over 2^bits
// Bernoulli(p) symbols is folded with the entropy-optimal barrier of
// eq. (3) and its size is compared to the string's zero-order entropy.
func RunFig7(cfg Config, bits int, ps []float64, w io.Writer) ([]Fig7Point, error) {
	if ps == nil {
		ps = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5}
	}
	n := 1 << uint(bits)
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	fprintf(w, "Fig 7: trie-folding as string compression, n = 2^%d Bernoulli symbols\n", bits)
	fprintf(w, "%7s %7s %3s %9s %6s\n", "p", "H0", "λ", "size[KB]", "ν")
	var pts []Fig7Point
	for _, p := range ps {
		s := gen.BernoulliString(rng, n, 1-p) // symbol 1 w.p. p
		freq := map[uint32]uint64{}
		for _, v := range s {
			freq[v]++
		}
		h0 := entropyOf(freq, n)
		lambda := bounds.LambdaEntropy(n, h0)
		if lambda > bits {
			lambda = bits
		}
		d, err := pdag.BuildString(s, lambda)
		if err != nil {
			return nil, err
		}
		bitsUsed := float64(d.ModelBytes()) * 8
		pt := Fig7Point{
			P:      p,
			H0:     h0,
			SizeKB: bitsUsed / 8 / 1024,
			Lambda: lambda,
		}
		if h0 > 0 {
			pt.Nu = bitsUsed / (float64(n) * h0)
		}
		pts = append(pts, pt)
		fprintf(w, "%7.3f %7.3f %3d %9.2f %6.2f\n", pt.P, pt.H0, pt.Lambda, pt.SizeKB, pt.Nu)
	}
	return pts, nil
}

func entropyOf(freq map[uint32]uint64, n int) float64 {
	h := 0.0
	for _, f := range freq {
		if f == 0 {
			continue
		}
		p := float64(f) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}
