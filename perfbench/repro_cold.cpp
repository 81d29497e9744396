// repro-cold: the fig3 ∪ fig6 grid (16 kernels × 13 points = 208) through
// one runner::Sweep on a fresh ResultCache, then Sweep::writeJson — the cold
// regeneration of the paper's headline figures. Simulation is nearly all of
// its host time. The grid is fixed, so the seed is ignored.
#include <fstream>

#include "runner/resultcache.hpp"
#include "runner/sweep.hpp"
#include "sim/simulation.hpp"
#include "support/jsonparse.hpp"
#include "workloads.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

using namespace lev;

namespace {

/// The two cheapest kernels: enough for a self-test to cover every path.
const std::vector<std::string> kTinyKernels = {"namd_compute",
                                               "exchange_perm"};

std::string describeCompileKey(const runner::JobSpec& s) {
  return s.kernel + "/" + std::to_string(s.budget) + "/" +
         (s.memoryProp ? "mem" : "nomem");
}

} // namespace

Outcome runReproCold(const Args& args) {
  Outcome out;
  const std::vector<std::string> kernels =
      args.tiny ? kTinyKernels : workloads::kernelNames();
  const std::string report = joinPath(args.workDir, "repro-cold.report.json");
  const auto cacheDir = [&](const std::string& tag) {
    return joinPath(args.workDir, "cache-" + tag);
  };

  std::map<std::string, std::uint64_t> baseline;
  std::vector<runner::JobSpec> specs;
  const double setupS = timeSetup(args, 5, [&] {
    baseline = loadFig3Baseline(args);
    specs = gridSpecs(kernels);
    removeTree(cacheDir("0"));
    makeDirs(cacheDir("0"));
  });
  if (args.perturbFig3) ++baseline.at(kernels.front() + "/unsafe");
  out.notes.push_back("repro-cold: " + std::to_string(specs.size()) +
                      " grid points over " + std::to_string(kernels.size()) +
                      " kernels; the seed is ignored (fixed grid)");

  Spans spans(args.trace);
  std::vector<double> passSeconds;
  std::vector<runner::RunRecord> simulated; // every record, every pass
  std::vector<runner::RunRecord> lastPass;
  runner::Sweep::Counters counters;
  runner::ResultCache::Counters cacheCounters;
  double busyUs = 0, threadUs = 0, sweepMs = 0;

  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    if (pass > 0) makeDirs(cacheDir(std::to_string(pass)));
    runner::ResultCache cache(
        {cacheDir(std::to_string(pass)), runner::kCodeVersionSalt});
    runner::Sweep::Options opts;
    opts.jobs = fixedJobs();
    opts.cache = &cache;
    opts.failPolicy = runner::FailPolicy::KeepGoing;

    const auto t0 = Clock::now();
    runner::Sweep sweep(opts);
    const std::int64_t epochUs = spans.nowUs();
    {
      Scope op(spans, "repro.pass", pass);
      for (const runner::JobSpec& s : specs) sweep.add(s);
      int sweepSpan = -1;
      {
        Scope s(spans, "runner.sweep", pass);
        sweepSpan = Spans::current();
        sweep.run();
      }
      {
        Scope s(spans, "runner.report", pass);
        std::ofstream f(report);
        sweep.writeJson(f);
        if (!f.flush()) out.fail("cannot write " + report);
      }
      // The sweep's own compile/simulate spans become children of
      // runner.sweep, on one track per pool worker.
      for (const trace::HostSpan& h : sweep.hostSpans()) {
        Spans::Span sp;
        sp.name = std::string(h.phase) == "compile" ? "runner.compile"
                                                    : "sim.simulate";
        sp.startUs = epochUs + h.startMicros;
        sp.endUs = epochUs + h.endMicros;
        sp.parent = sweepSpan;
        sp.op = static_cast<std::uint64_t>(pass);
        sp.thread = 100 + h.worker;
        spans.add(std::move(sp));
      }
    }
    const auto t1 = Clock::now();
    passSeconds.push_back(std::chrono::duration<double>(t1 - t0).count());

    // Checks (untimed): every point, the report and the cache writes.
    out.attempted += specs.size();
    for (const std::string& why :
         checkGrid(specs, sweep.results(), sweep.outcomes(), baseline))
      out.fail(why);
    try {
      const json::JsonValue doc = json::parseFile(report);
      if (doc.at("results").items.size() != specs.size())
        out.fail("report holds " +
                 std::to_string(doc.at("results").items.size()) +
                 " results");
    } catch (const std::exception& e) {
      out.fail(std::string("report: ") + e.what());
    }
    const runner::ResultCache::Counters cc = cache.counters();
    if (cc.storeFailures != 0 || cc.hits != 0)
      out.fail(std::to_string(cc.storeFailures) + " cache stores failed, " +
               std::to_string(cc.hits) + " hits on a fresh cache");

    const auto& c = sweep.counters();
    counters.simulated += c.simulated;
    counters.compiles += c.compiles;
    cacheCounters.hits += cc.hits;
    cacheCounters.misses += cc.misses;
    cacheCounters.storeFailures += cc.storeFailures;
    for (const trace::HostSpan& h : sweep.hostSpans())
      busyUs += static_cast<double>(h.endMicros - h.startMicros);
    threadUs += static_cast<double>(sweep.wallMicros()) * sweep.threadCount();
    sweepMs += static_cast<double>(sweep.wallMicros()) / 1000.0;
    lastPass = sweep.results();
    for (const runner::RunRecord& r : sweep.results())
      if (!r.fromCache) simulated.push_back(r);
    removeTree(cacheDir(std::to_string(pass)));
    if (std::chrono::duration<double>(Clock::now() - start).count() >=
        args.seconds)
      break;
  }
  const double passes = static_cast<double>(passSeconds.size());
  // The headline number: exact, so it must equal the baseline's geomean.
  const double overheadPct = leviosoOverheadPct(specs, lastPass);
  const double expectedPct = leviosoOverheadPct(kernels, baseline);
  out.notes.push_back("levioso_overhead_pct " + std::to_string(overheadPct) +
                      " % (fig3 baseline: " + std::to_string(expectedPct) +
                      " %)");
  if (overheadPct != expectedPct)
    out.fail("levioso overhead differs from the fig3 baseline's geomean");

  if (!args.trace) {
    double insts = 0, micros = 0;
    std::vector<double> opMs;
    for (const runner::RunRecord& r : simulated) {
      insts += static_cast<double>(r.summary.insts);
      micros += static_cast<double>(r.wallMicros);
      opMs.push_back(static_cast<double>(r.wallMicros) / 1000.0);
    }
    out.notes.push_back("passes " + std::to_string(passSeconds.size()) +
                        ", op samples (simulations) " +
                        std::to_string(opMs.size()));
    out.add("setup_s", setupS, "s");
    out.add("wall_s", median(passSeconds), "s");
    out.add("sim_mips", micros > 0 ? insts / micros : 0, "MIPS");
    out.add("op_ms_p50", roundQuantile(opMs, specs.size(), 0.5), "ms");
    out.add("op_ms_p90", roundQuantile(opMs, specs.size(), 0.9), "ms");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
  }

  // Layer probe (traced run only, after the measured phase): the compile
  // pipeline of each distinct program, and one Simulation built per point.
  std::map<std::string, ProbeCompile> programs;
  std::uint64_t probeOp = kProbeOp;
  double depEntries = 0, overflowed = 0;
  for (const runner::JobSpec& s : specs) {
    const std::string key = describeCompileKey(s);
    auto it = programs.find(key);
    if (it == programs.end()) {
      Scope op(spans, "probe.compile", ++probeOp);
      ProbeCompile pc = probeCompile(
          spans, probeOp,
          [&s] { return workloads::buildKernel(s.kernel, s.scale); },
          "workloads.build", s.budget, s.memoryProp);
      depEntries += static_cast<double>(pc.result->depStats.totalDepEntries);
      overflowed += static_cast<double>(pc.result->encodeStats.overflowed);
      it = programs.emplace(key, std::move(pc)).first;
    }
    Scope c(spans, "sim.ctor", probeOp);
    const sim::Simulation simulation(*it->second.predecoded, s.cfg, s.policy);
  }
  {
    // Cache lookups on a fresh directory: the miss path every point takes.
    runner::ResultCache probeCache(
        {cacheDir("probe"), runner::kCodeVersionSalt});
    Scope op(spans, "probe.lookup", ++probeOp);
    for (const runner::JobSpec& s : specs) {
      Scope l(spans, "runner.cache_lookup", probeOp);
      probeCache.lookup(runner::describe(s));
    }
  }

  const auto t = spans.totals();
  const auto mean = [&t](const char* name, double scale) {
    return meanOf(t, name, scale);
  };
  const auto total = [&t](const char* name) { return totalOf(t, name); };
  addSimMetrics(simulated, out);
  out.add("levioso_overhead_pct", overheadPct, "%");
  out.add("sim.ctor_us", mean("sim.ctor", 1), "us");
  out.add("backend.compile_us", mean("backend.compile", 1), "us");
  out.add("backend.compiles", static_cast<double>(programs.size()), "count");
  out.add("ir.optimize_us", mean("ir.optimize", 1), "us");
  out.add("levioso.analysis_us", mean("levioso.analysis", 1), "us");
  out.add("levioso.dep_entries", depEntries, "count");
  out.add("levioso.overflowed", overflowed, "count");
  out.add("workloads.build_ms", mean("workloads.build", 1000), "ms");
  out.add("uarch.predecode_us", mean("uarch.predecode", 1), "us");
  out.add("runner.simulated", static_cast<double>(counters.simulated),
          "count");
  out.add("runner.compiles", static_cast<double>(counters.compiles), "count");
  out.add("runner.cache_hits", static_cast<double>(cacheCounters.hits),
          "count");
  out.add("runner.cache_misses", static_cast<double>(cacheCounters.misses),
          "count");
  out.add("runner.cache_store_failures",
          static_cast<double>(cacheCounters.storeFailures), "count");
  out.add("runner.cache_lookup_us", mean("runner.cache_lookup", 1), "us");
  out.add("runner.sweep_ms", sweepMs / passes, "ms");
  out.add("runner.report_ms", mean("runner.report", 1000), "ms");
  out.add("runner.pool_idle_pct",
          threadUs > 0 ? 100.0 * (1.0 - busyUs / threadUs) : 0, "%");
  finishPerLayer(out);

  // Host busy time of the measured passes by layer: the pool's simulate and
  // compile jobs, plus the serial rest of run() and the report.
  const double sim = total("sim.simulate"), compile = total("runner.compile");
  const double serial =
      totalOf(t, "runner.sweep", true) + total("runner.report");
  const double busy = sim + compile + serial;
  char share[256];
  std::snprintf(share, sizeof(share),
                "repro-cold: simulation %.2f%% of measured host busy time, "
                "compile %.2f%%, runner serial + report %.2f%%; "
                "runner.simulated %llu",
                100 * sim / busy, 100 * compile / busy, 100 * serial / busy,
                static_cast<unsigned long long>(counters.simulated));
  out.notes.push_back(share);
  writeLayerDump(args, spans, out, median(passSeconds), share);
  return out;
}

} // namespace perfbench
