// fuzz-oracle: levioso-fuzz's per-seed work. Programs from
// fuzz::ProgramGen, seeded from the workload seed, each checked by
// fuzz::checkProgram under all 7 policies with the oracle attached and the
// IR interpreter as reference, on a fixed pool of workers. Compile-bound
// with tiny simulations, so it shows the compile pipeline and per-run
// set-up that repro-cold cannot see.
#include <algorithm>
#include <cstdio>
#include <future>

#include "fuzz/oracle.hpp"
#include "fuzz/progen.hpp"
#include "ir/interp.hpp"
#include "runner/threadpool.hpp"
#include "secure/policies.hpp"
#include "sim/simulation.hpp"
#include "support/table.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lev;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct OpResult {
  double ms = 0;
  std::string failure; ///< empty when every check passed
  /// Committed instructions and cycles of each policy run, in policies()
  /// order (checkProgram's).
  std::vector<std::uint64_t> insts, cycles;
  std::uint64_t unsafeCycles = 0, leviosoCycles = 0;
  std::size_t violations = 0, divergences = 0;
  bool simFailed = false;
};

OpResult checkOne(Spans& spans, std::uint64_t k, std::uint64_t programSeed,
                  const fuzz::CheckOptions& opts) {
  OpResult r;
  const auto t0 = Clock::now();
  fuzz::CheckResult res;
  {
    Scope op(spans, "fuzz.check", k);
    res = fuzz::checkProgram(
        [&spans, k, programSeed] {
          Scope g(spans, "fuzz.progen", k);
          return fuzz::ProgramGen(programSeed).generate();
        },
        opts);
  }
  r.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  r.violations = res.totalViolations();
  r.divergences = res.totalDivergences();
  r.simFailed = res.simFailed;
  const std::string label = "program seed " + std::to_string(programSeed);
  if (!res.clean()) {
    r.failure = label + ": " + std::to_string(r.violations) +
                " violations, " + std::to_string(r.divergences) +
                " divergences" + (res.simFailed ? ", " + res.simError : "");
    return r;
  }
  for (const fuzz::PolicyRunResult& run : res.runs) {
    r.insts.push_back(run.insts);
    r.cycles.push_back(run.cycles);
    if (run.insts != res.runs.front().insts)
      r.failure = label + ": " + run.policy + " committed " +
                  std::to_string(run.insts) + " insts, " +
                  res.runs.front().policy + " " +
                  std::to_string(res.runs.front().insts);
    if (run.policy == "unsafe") r.unsafeCycles = run.cycles;
    if (run.policy == "levioso") r.leviosoCycles = run.cycles;
  }
  return r;
}

/// Simulation time of one program's policy runs, for sim_mips.
struct SimTime {
  double insts = 0;  ///< committed, summed over the policy runs
  double micros = 0; ///< sim::Simulation constructor + run, summed
  std::string failure;
};

/// checkProgram exposes no per-run time, so sim_mips replays a checked
/// program's simulations the way checkProgram runs them (a fresh module
/// compiled with the default options, the oracle attached) and times only
/// the sim::Simulation constructor and run: what RunRecord::wallMicros
/// covers on repro-cold. Each replay must commit the instructions, in the
/// cycles, that checkProgram reported.
SimTime replaySimulations(std::uint64_t programSeed, const OpResult& op,
                          const fuzz::CheckOptions& opts) {
  SimTime t;
  for (std::size_t i = 0; i < policies().size(); ++i) {
    const std::string& policy = policies()[i];
    ir::Module mod = fuzz::ProgramGen(programSeed).generate();
    const backend::CompileResult res = backend::compile(mod);
    const uarch::PredecodedProgram predecoded(res.program);
    const auto t0 = Clock::now();
    sim::Simulation s(
        predecoded, opts.cfg,
        std::make_unique<fuzz::OraclePolicy>(secure::makePolicy(policy)));
    const uarch::RunExit exit = s.run(opts.maxCycles);
    t.micros +=
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    t.insts += static_cast<double>(s.core().committedInsts());
    if (exit != uarch::RunExit::Halted || i >= op.insts.size() ||
        s.core().committedInsts() != op.insts[i] ||
        s.core().cycle() != op.cycles[i])
      t.failure = "program seed " + std::to_string(programSeed) + ": " +
                  policy + " replay ran " + std::to_string(s.core().cycle()) +
                  " cycles, " + std::to_string(s.core().committedInsts()) +
                  " insts, unlike its checkProgram run";
  }
  return t;
}

} // namespace

Outcome runFuzzOracle(const Args& args) {
  Outcome out;
  // One round checks this many programs; wall_s is a round's wall time.
  const std::size_t perRound = args.tiny ? 8 : 500;
  const int jobs = fixedJobs();

  std::unique_ptr<runner::ThreadPool> pool;
  fuzz::CheckOptions opts;
  std::uint64_t seedBase = 0;
  // A set-up is a fraction of a millisecond, so setup_s is the median of
  // many.
  const double setupS = timeSetup(args, 21, [&] {
    pool.reset();
    pool = std::make_unique<runner::ThreadPool>(jobs);
    opts = fuzz::CheckOptions();
    opts.weakenPolicy = args.weakenPolicy;
    seedBase = splitmix64(args.seed);
  });
  out.notes.push_back("fuzz-oracle: program k uses ProgramGen seed " +
                      std::to_string(seedBase) + " + k; " +
                      std::to_string(jobs) + " workers");

  Spans spans(args.trace);
  std::vector<OpResult> ops;
  std::vector<double> roundSeconds;
  // sim_mips (untraced runs): after each round, untimed by wall_s, the
  // first programs of the round are replayed on this thread alone, so the
  // replays sample the host over the whole run as the rounds do.
  const std::size_t replaysPerRound = args.trace ? 0 : args.tiny ? 2 : 25;
  double simInsts = 0, simMicros = 0;
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    std::vector<OpResult> results(perRound);
    std::vector<std::future<void>> futures;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < perRound; ++i) {
      const std::uint64_t k = round * perRound + i;
      futures.push_back(pool->submit([&, k, i] {
        results[i] = checkOne(spans, k, seedBase + k, opts);
      }));
    }
    runner::ThreadPool::waitAll(futures);
    roundSeconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    for (std::size_t i = 0; i < replaysPerRound; ++i) {
      if (!results[i].failure.empty()) continue;
      const SimTime t = replaySimulations(seedBase + round * perRound + i,
                                          results[i], opts);
      simInsts += t.insts;
      simMicros += t.micros;
      results[i].failure = t.failure;
    }
    ops.insert(ops.end(), results.begin(), results.end());
    if (std::chrono::duration<double>(Clock::now() - start).count() >=
        args.seconds)
      break;
  }

  double opMsTotal = 0, violations = 0, divergences = 0, simFailures = 0;
  std::vector<double> opMs, ratios;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const OpResult& r = ops[k];
    ++out.attempted;
    if (!r.failure.empty()) out.fail(r.failure);
    opMsTotal += r.ms;
    opMs.push_back(r.ms);
    violations += static_cast<double>(r.violations);
    divergences += static_cast<double>(r.divergences);
    simFailures += r.simFailed ? 1 : 0;
    // The overhead is taken over the first round only: a fixed program set
    // per seed, whatever the host's speed.
    if (k < perRound && r.unsafeCycles > 0 && r.leviosoCycles > 0)
      ratios.push_back(static_cast<double>(r.leviosoCycles) /
                       static_cast<double>(r.unsafeCycles));
  }

  if (!args.trace) {
    out.notes.push_back("rounds " + std::to_string(roundSeconds.size()) +
                        " of " + std::to_string(perRound) +
                        " programs, op samples " +
                        std::to_string(opMs.size()) + ", replayed " +
                        std::to_string(replaysPerRound) + " a round");
    out.add("setup_s", setupS, "s");
    out.add("wall_s", median(roundSeconds), "s");
    out.add("sim_mips", simMicros > 0 ? simInsts / simMicros : 0, "MIPS");
    out.add("op_ms_p50", roundQuantile(opMs, perRound, 0.5), "ms");
    out.add("op_ms_p90", roundQuantile(opMs, perRound, 0.9), "ms");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
  }

  // Layer probe (traced run only): checkProgram's steps for the first
  // programs, called one by one through the same public entry points.
  const std::size_t probes = std::min<std::size_t>(args.tiny ? 2 : 100,
                                                   ops.size());
  std::vector<runner::RunRecord> records;
  double depEntries = 0, overflowed = 0, compiles = 0;
  for (std::uint64_t k = 0; k < probes; ++k) {
    const std::uint64_t programSeed = seedBase + k;
    const auto gen = [programSeed] {
      return fuzz::ProgramGen(programSeed).generate();
    };
    const std::uint64_t id = kProbeOp + k;
    Scope op(spans, "probe.check", id);
    {
      ir::Module ref = [&] {
        Scope g(spans, "fuzz.progen", id);
        return gen();
      }();
      Scope s(spans, "fuzz.interp", id);
      ir::Interpreter interp(ref);
      interp.run(opts.maxInterpInsts);
      fuzz::snapshotInterp(interp);
    }
    for (const std::string& policy : policies()) {
      // checkProgram compiles with the default options.
      const backend::CompileOptions defaults;
      const ProbeCompile pc = probeCompile(
          spans, id, gen, "fuzz.progen", defaults.annotationBudget,
          defaults.depOptions.propagateThroughMemory);
      ++compiles;
      depEntries += static_cast<double>(pc.result->depStats.totalDepEntries);
      overflowed += static_cast<double>(pc.result->encodeStats.overflowed);
      // rec.wallMicros covers the constructor and the run, as on the sweep.
      const auto t0 = Clock::now();
      std::unique_ptr<sim::Simulation> s;
      {
        Scope c(spans, "sim.ctor", id);
        s = std::make_unique<sim::Simulation>(
            *pc.predecoded, opts.cfg,
            std::make_unique<fuzz::OraclePolicy>(secure::makePolicy(policy)));
      }
      runner::RunRecord rec;
      {
        Scope r(spans, "sim.run", id);
        s->run(opts.maxCycles);
      }
      rec.wallMicros = std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - t0)
                           .count();
      rec.summary.policy = policy;
      rec.summary.cycles = s->core().cycle();
      rec.summary.insts = s->core().committedInsts();
      rec.stats = s->stats().all();
      fuzz::snapshotMachine(s->core().memory(), pc.result->program);
      records.push_back(std::move(rec));
    }
  }

  const auto measured = spans.totals(0, kProbeOp);
  const auto probe = spans.totals(kProbeOp);
  const auto mean = [&probe](const char* name) {
    return meanOf(probe, name, 1);
  };
  const auto total = [&probe](const char* name) {
    return totalOf(probe, name);
  };
  double roundsUs = 0;
  for (double s : roundSeconds) roundsUs += s * 1e6;
  addSimMetrics(records, out);
  out.add("levioso_overhead_pct",
          ratios.empty() ? 0 : (geomean(ratios) - 1.0) * 100.0, "%");
  out.add("sim.ctor_us", mean("sim.ctor"), "us");
  out.add("backend.compile_us", mean("backend.compile"), "us");
  out.add("backend.compiles", compiles, "count");
  out.add("ir.optimize_us", mean("ir.optimize"), "us");
  out.add("levioso.analysis_us", mean("levioso.analysis"), "us");
  out.add("levioso.dep_entries", depEntries, "count");
  out.add("levioso.overflowed", overflowed, "count");
  // Generation and checking as they ran inside checkProgram.
  out.add("fuzz.progen_us", meanOf(measured, "fuzz.progen", 1), "us");
  out.add("uarch.predecode_us", mean("uarch.predecode"), "us");
  out.add("fuzz.interp_us", mean("fuzz.interp"), "us");
  out.add("fuzz.check_ms", meanOf(measured, "fuzz.check", 1000), "ms");
  out.add("fuzz.violations", violations, "count");
  out.add("fuzz.divergences", divergences, "count");
  out.add("fuzz.sim_failures", simFailures, "count");
  out.add("runner.pool_idle_pct",
          roundsUs > 0 ? 100.0 * (1.0 - opMsTotal * 1000.0 / (jobs * roundsUs))
                       : 0,
          "%");
  finishPerLayer(out);

  // Shares of a probed check, without the analysis re-run (extra work).
  const double opUs = total("probe.check") - total("levioso.analysis");
  const double compile = total("backend.compile");
  char share[320];
  std::snprintf(
      share, sizeof(share),
      "fuzz-oracle: backend.compile %.1f%% of a checkProgram (ir.optimize "
      "%.1f%% and levioso analysis ~%.1f%% of the compile), simulation "
      "ctor+run %.1f%%, predecode %.1f%%, progen %.1f%%, interp %.1f%%",
      100 * compile / opUs, 100 * total("ir.optimize") / compile,
      100 * total("levioso.analysis") / compile,
      100 * (total("sim.ctor") + total("sim.run")) / opUs,
      100 * total("uarch.predecode") / opUs,
      100 * total("fuzz.progen") / opUs,
      100 * total("fuzz.interp") / opUs);
  out.notes.push_back(share);
  writeLayerDump(args, spans, out, median(roundSeconds), share);
  return out;
}

} // namespace perfbench
