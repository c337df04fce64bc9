package main

import (
	"fmt"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

// serveProbe is what the traced run measures on the serve layer.
type serveProbe struct {
	submitMS, serverFirstMS, deliveryMS []float64
	rssGrowthKB                         float64
	batches                             int
	warm                                fleet.WarmStats
	goDelta                             goCounters
	jobs                                int
}

// probeServe submits the workload's own specs to a fresh in-process
// fleetd and reads each batch's server-side record after its journal,
// so the serve and warm layers are measured on every workload: the
// batch workloads submit their batch probeSubmissions times, the first
// cold; fleetd-mixed runs its closed loop. Every streamed journal must
// equal the batch path's.
func probeServe(w workload, o options, p *core.Pipeline, out *outcome) (serveProbe, error) {
	var sp serveProbe
	d, err := startDaemon()
	if err != nil {
		return sp, err
	}
	defer d.close()
	each := func(sub submission) error {
		st, err := d.status(sub.id)
		if err != nil {
			return err
		}
		sp.submitMS = append(sp.submitMS, ms(sub.submit))
		sp.serverFirstMS = append(sp.serverFirstMS, st.FirstJobMS)
		sp.deliveryMS = append(sp.deliveryMS, ms(sub.firstJob)-st.FirstJobMS)
		return nil
	}
	jobs0 := out.jobs
	rss0 := settledRSSKB()
	g0 := readGoCounters()
	digests := map[uint64]string{}
	if w.batch == nil {
		var seeds []uint64
		if seeds, err = lifetimeSeeds(out, o.seed, 0, tracedSubmissions); err == nil {
			err = lifetime(d, out, seeds, digests, each)
		}
	} else {
		var want string
		want, err = recordedDigest(w.name)
		for i := 0; i < probeSubmissions && err == nil; i++ {
			var sub submission
			if sub, err = d.submit(*w.batch); err != nil {
				break
			}
			if sub.refused || sub.digest != want {
				return sp, fmt.Errorf("probe submission %d: refused, or journal %s differs from the recorded %s", i, sub.digest, want)
			}
			out.jobs += sub.summary.Jobs
			err = each(sub)
		}
	}
	if err != nil {
		return sp, err
	}
	sp.goDelta = readGoCounters().since(g0)
	sp.jobs = out.jobs - jobs0
	sp.batches = len(sp.submitMS)
	sp.rssGrowthKB = settledRSSKB() - rss0
	sp.warm = d.s.WarmStats()
	return sp, checkBatchPath(p, digests, o)
}

// tracedRun is the separate traced run: the batch passes of profile on
// the workload's specs, then the serve probe, reduced to the per-layer
// metrics.
func tracedRun(w workload, o options) (*result, *identity, error) {
	out := newOutcome(w, o)
	out.id.Trace = true
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	pf := &profile{}
	if w.batch != nil {
		want, err := recordedDigest(w.name)
		if err != nil {
			return nil, nil, err
		}
		if err := out.addSpec(*w.batch); err != nil {
			return nil, nil, err
		}
		if err := pf.profileSpec(p, *w.batch, o, referenceShare, want); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
	} else {
		// A warm seed and the run's first cold seed.
		for _, seed := range []uint64{warmSeeds[0], submissionSeed(o.seed, coldEvery-1)} {
			spec := genSpec(seed)
			if err := out.addSpec(spec); err != nil {
				return nil, nil, err
			}
			if err := pf.profileSpec(p, spec, o, referenceShare/2, ""); err != nil {
				return nil, nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
		}
	}
	sp, err := probeServe(w, o, p, out)
	if err != nil {
		return nil, nil, err
	}
	m, breakdown, err := pf.metrics(sp, w.batch == nil)
	if err != nil {
		return nil, nil, err
	}
	out.id.Breakdown = breakdown
	var tracers []*tracer
	tracers = append(tracers, pf.prep...)
	for _, ps := range pf.traced {
		tracers = append(tracers, ps.tracers...)
	}
	if err := writeSpans(o.path("spans-"+w.name+".ndjson"), tracers); err != nil {
		return nil, nil, err
	}
	jobs := pf.refJobs + pf.tracedJobs + pf.oneJobs + sp.jobs
	out.id.Jobs = jobs
	return &result{Correct: true, Attempted: jobs, Failed: 0, Metrics: m}, &out.id, nil
}

// metrics reduces the traced run to the per-layer metrics, and returns
// the per-job host-time account: phase self times plus the unaccounted
// remainder equal the untraced per-job host time.
func (pf *profile) metrics(sp serveProbe, goFromServe bool) (map[string]metric, map[string]float64, error) {
	if pf.refJobs == 0 || pf.tracedJobs == 0 || pf.oneJobs == 0 || pf.bootN == 0 || sp.batches == 0 {
		return nil, nil, fmt.Errorf("traced run measured nothing")
	}
	m := map[string]metric{}

	// Preparation: per firmware built.
	prep := map[string]time.Duration{}
	counts := map[string]int{}
	for _, t := range pf.prep {
		for name, d := range durations(t.spans, func(*span) bool { return true }) {
			prep[name] += d
		}
		for _, s := range t.spans {
			counts[s.Name]++
		}
	}
	m["core.pipeline.build_ms"] = metric{ms(prep[spanBuild]) / float64(counts[spanBuild]), "ms"}
	m["isa.predecode_ms"] = metric{ms(prep[spanPredecode]) / float64(counts[spanPrepare]), "ms"}

	// Per-job phases of the traced replay, after the warm-up batch.
	self := map[string]time.Duration{}
	var construct, boot time.Duration
	constructN, bootN := 0, 0
	for _, ps := range pf.traced {
		for _, t := range ps.tracers {
			for name, d := range selfTimes(t.spans, after) {
				self[name] += d
			}
			for _, s := range t.spans {
				switch {
				case s.Name == spanConstruct:
					construct += time.Duration(s.End - s.Start)
					constructN++
				case s.Name == spanBoot && after(&s):
					boot += time.Duration(s.End - s.Start)
					bootN++
				}
			}
		}
	}
	if constructN == 0 {
		return nil, nil, fmt.Errorf("the replay constructed no machine")
	}
	if bootN == 0 {
		// Attack and generated jobs boot inside ExecuteOn.
		boot, bootN = pf.boot, pf.bootN
	}
	perJob := func(d time.Duration) float64 { return us(d) / float64(pf.tracedJobs) }
	m["core.machine.construct_us"] = metric{us(construct) / float64(constructN), "us"}
	m["core.machine.recycle_us"] = metric{perJob(self[spanRecycle]), "us"}
	m["core.machine.boot_us"] = metric{us(boot) / float64(bootN), "us"}
	m["attacks.execute_us"] = metric{perJob(self[spanExecute]), "us"}
	m["oracle.check_us"] = metric{perJob(self[spanCheck]), "us"}
	m["fleet.journal.encode_us"] = metric{perJob(self[spanEncode]), "us"}
	m["fleet.journal.write_us"] = metric{perJob(self[spanWrite]), "us"}
	m["fleet.journal.bytes_per_job"] = metric{float64(pf.journalBytes) / float64(pf.journalJobs), "bytes"}

	if err := pf.columnMetrics(m); err != nil {
		return nil, nil, err
	}

	// The per-job host-time account against the untraced reference.
	hostUS := us(pf.refWall) * workers / float64(pf.refJobs)
	breakdown := map[string]float64{"host_us_per_job": hostUS}
	accounted := 0.0
	for _, name := range phases {
		v := perJob(self[name])
		breakdown[name] = v
		accounted += v
	}
	breakdown["unaccounted"] = hostUS - accounted
	m["fleet.runner.host_us_per_job"] = metric{hostUS, "us"}
	m["fleet.runner.unaccounted_us_per_job"] = metric{hostUS - accounted, "us"}
	refJPS := float64(pf.refJobs) / pf.refWall.Seconds()
	m["fleet.pool.scaling_2v1"] = metric{refJPS / (float64(pf.oneJobs) / pf.oneWall.Seconds()), "ratio"}
	m["trace.jobs_per_s_ratio"] = metric{float64(pf.tracedJobs) / pf.tracedWall.Seconds() / refJPS, "ratio"}

	g, jobs := pf.goDelta, pf.refJobs
	if goFromServe {
		g, jobs = sp.goDelta, sp.jobs
	}
	m["go.allocs_per_job"] = metric{float64(g.mallocs) / float64(jobs), "count"}
	m["go.alloc_bytes_per_job"] = metric{float64(g.bytes) / float64(jobs), "bytes"}
	m["go.gc_cpu_fraction"] = metric{g.gcCPU / g.allCPU, "ratio"}

	lookups := sp.warm.ArtifactHits + sp.warm.ArtifactMisses
	if lookups == 0 {
		return nil, nil, fmt.Errorf("fleetd built no artifact")
	}
	m["fleet.warm.artifact_hit_ratio"] = metric{float64(sp.warm.ArtifactHits) / float64(lookups), "ratio"}
	m["fleet.warm.machines_retained"] = metric{float64(sp.warm.Machines), "count"}
	m["serve.submit_ms"] = metric{median(sp.submitMS), "ms"}
	m["serve.first_job_server_ms.p50"] = metric{median(sp.serverFirstMS), "ms"}
	m["serve.delivery_ms.p50"] = metric{median(sp.deliveryMS), "ms"}
	m["serve.rss_kb_per_batch"] = metric{sp.rssGrowthKB / float64(sp.batches), "KB"}
	return m, breakdown, nil
}

// columnMetrics adds each column's simulation speed and monitor hook
// cost: the column's time per simulated kcycle minus its no-monitor
// twin's on the same jobs.
func (pf *profile) columnMetrics(m map[string]metric) error {
	ns, twinNS := map[string]time.Duration{}, map[string]time.Duration{}
	kc, twinKC := map[string]float64{}, map[string]float64{}
	for i, ps := range pf.traced {
		tw := pf.twin[i]
		t, twinT := jobRunTimes(ps), jobRunTimes(tw)
		for j, job := range ps.jobs {
			ns[job.Defense] += t[j]
			twinNS[job.Defense] += twinT[j]
			kc[job.Defense] += float64(ps.cycles[j]) * float64(ps.batches) / 1000
			twinKC[job.Defense] += float64(tw.cycles[j]) * float64(tw.batches) / 1000
		}
	}
	for _, col := range columns {
		if kc[col] == 0 || twinKC[col] == 0 {
			return fmt.Errorf("column %s simulated no cycles", col)
		}
		perKC := float64(ns[col]) / kc[col]
		m["core.machine.run_ns_per_kcycle."+col] = metric{perKC, "ns/kcycle"}
		if col != core.DefenseBaseline.Name {
			m["casu.hook_ns_per_kcycle."+col] = metric{perKC - float64(twinNS[col])/twinKC[col], "ns/kcycle"}
		}
	}
	return nil
}

// jobRunTimes sums each job's simulation time over the pass's batches
// after the warm-up: the Run span of an app job, the attacks.ExecuteOn
// span of an attack or generated job (which boots and runs in one
// call).
func jobRunTimes(ps pass) []time.Duration {
	out := make([]time.Duration, len(ps.jobs))
	for _, t := range ps.tracers {
		for i := range t.spans {
			s := &t.spans[i]
			if !after(s) {
				continue
			}
			if kind := ps.jobs[s.Job].Kind; (kind == "app" && s.Name == spanRun) || (kind != "app" && s.Name == spanExecute) {
				out[s.Job] += time.Duration(s.End - s.Start)
			}
		}
	}
	return out
}
