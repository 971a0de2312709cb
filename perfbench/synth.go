package main

import (
	"fmt"
	"time"
)

func runSynth(cfg config) (*runResult, error) {
	in, err := newSynthInputs(cfg.sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.corrupt {
		for i := range in.want {
			in.want[i] += " "
		}
	}
	res := &runResult{}

	var setup []float64
	for i := 0; i < cfg.sz.SetupReps; i++ {
		freshHeap()
		t0 := time.Now()
		if _, err := synthesize(in.rels[0], in.seeds[0], nproc); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	var lat, cpu []float64
	ok := 0
	stopRSS := watchRSS()
	stop := time.Now().Add(cfg.duration())
	for k := 0; time.Now().Before(stop); k++ {
		i := k % len(in.rels)
		freshHeap()
		c0, t0 := procCPU(), time.Now()
		text, err := synthesize(in.rels[i], in.seeds[i], nproc)
		lat = append(lat, ms(time.Since(t0)))
		cpu = append(cpu, ms(procCPU()-c0))
		res.attempted++
		if err != nil || text != in.want[i] {
			res.failed++
			continue
		}
		ok++
	}
	setSerialMetrics(res, setup, lat, cpu, in.rels[0].NumRows(), ok, stopRSS())
	return res, nil
}
