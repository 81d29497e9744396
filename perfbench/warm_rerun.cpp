// warm-rerun: the runner's warm read path. Set-up fills a fresh cache with
// the repro-cold grid over the four cheapest kernels (52 points); the
// measured phase has a fixed set of closed-loop clients repeat
// bench::runAll's --json path on it: a fresh Sweep, run(), writeJson,
// makeManifest + writeManifestFile. No rerun simulates or compiles. After
// each round, every client replays one of the cached simulations for
// sim_mips. The inputs are fixed, so the seed is ignored.
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>

#include "runner/manifest.hpp"
#include "runner/resultcache.hpp"
#include "runner/sweep.hpp"
#include "runner/threadpool.hpp"
#include "workloads.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

using namespace lev;

namespace {

const std::vector<std::string> kKernels = {"namd_compute", "exchange_perm",
                                           "povray_shade", "deepsjeng_mix"};

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Put `path` on disk, journal included.
void syncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fdatasync(fd);
  ::close(fd);
}

/// One rerun as a client records it.
struct Rerun {
  double ms = 0;
  std::string failure; ///< empty when every check passed
  std::string report;  ///< the report's bytes, read back untimed
};

/// One replayed simulation, for sim_mips.
struct Replay {
  double insts = 0;  ///< committed
  double micros = 0; ///< sim::Simulation constructor + run
  std::string failure;
};

} // namespace

Outcome runWarmRerun(const Args& args) {
  Outcome out;
  const std::vector<std::string> kernels =
      args.tiny ? std::vector<std::string>(kKernels.begin(),
                                           kKernels.begin() + 2)
                : kKernels;
  // Closed-loop clients, one rerun each at a time. A warm rerun never uses
  // its Sweep's pool, so each Sweep gets one worker: the rerun still starts
  // and stops a pool, and the process runs no more busy threads than CPUs.
  const int clients = fixedJobs();
  const int sweepJobs = 1;
  // One round is this many reruns; wall_s is a round's wall time.
  const int perRound = args.tiny ? 8 : 100 * clients;
  const auto cacheDir = [&](int rep) {
    return joinPath(args.workDir, "cache-" + std::to_string(rep));
  };
  const std::vector<runner::JobSpec> specs = gridSpecs(kernels);
  const std::map<std::string, std::uint64_t> baseline = loadFig3Baseline(args);

  // Set-up: fill a fresh cache, five times; the last fill is used.
  std::vector<std::string> fillFailures;
  const int fills = 5;
  int rep = -1;
  const double setupS = timeSetup(args, fills, [&] {
    ++rep;
    removeTree(cacheDir(rep));
    runner::ResultCache cache({cacheDir(rep), runner::kCodeVersionSalt});
    runner::Sweep::Options opts;
    opts.jobs = fixedJobs();
    opts.cache = &cache;
    opts.failPolicy = runner::FailPolicy::KeepGoing;
    runner::Sweep sweep(opts);
    for (const runner::JobSpec& s : specs) sweep.add(s);
    sweep.run();
    if (sweep.counters().failed != 0 || cache.counters().storeFailures != 0)
      fillFailures.push_back("cache fill " + std::to_string(rep) + ": " +
                             std::to_string(sweep.counters().failed) +
                             " points failed, " +
                             std::to_string(cache.counters().storeFailures) +
                             " stores failed");
  });
  for (int r = 0; r + 1 < fills; ++r) removeTree(cacheDir(r));
  // Untimed: the fills reach the disk before the reruns start, so their
  // writeback does not overlap the measured phase.
  ::sync();
  const std::string dir = cacheDir(rep);
  out.notes.push_back("warm-rerun: " + std::to_string(specs.size()) +
                      " cached points over " + std::to_string(kernels.size()) +
                      " kernels, " + std::to_string(clients) +
                      " clients; the seed is ignored (fixed grid)");

  Spans spans(args.trace);
  std::vector<runner::RunRecord> firstRecords;
  runner::Sweep::Counters counters;
  runner::ResultCache::Counters cacheCounters;
  double idleUs = 0, threadUs = 0;
  std::mutex mutex; // guards the totals above

  // Each client truncates and rewrites its own report and manifest on every
  // rerun, as `bench --json FILE` does on each invocation. Between its
  // reruns, untimed, a client syncs both: that is the state a rerun finds
  // once the file system's journal commit interval has passed since the
  // last one, while back-to-back reruns would wait on each other's
  // writeback and journal commits (README.md "warm-rerun").
  const auto rerun = [&](std::uint64_t k, int client) {
    Rerun r;
    const std::string report = joinPath(
        args.workDir, "rerun-" + std::to_string(client) + ".report.json");
    const std::string manifest = runner::manifestPathFor(report);
    const auto t0 = Clock::now();
    {
      Scope op(spans, "warm.rerun", k);
      runner::ResultCache cache({dir, runner::kCodeVersionSalt});
      runner::Sweep::Options opts;
      opts.jobs = sweepJobs;
      opts.cache = &cache;
      opts.failPolicy = runner::FailPolicy::KeepGoing;
      runner::Sweep sweep(opts);
      for (const runner::JobSpec& s : specs) sweep.add(s);
      {
        Scope s(spans, "runner.sweep", k);
        sweep.run();
      }
      {
        Scope s(spans, "runner.report", k);
        std::ofstream f(report);
        sweep.writeJson(f);
        if (!f.flush()) r.failure = "cannot write " + report;
      }
      {
        Scope s(spans, "runner.manifest", k);
        runner::Manifest m = runner::makeManifest("perfbench", {}, sweep);
        m.reportPath = report;
        if (!runner::writeManifestFile(manifest, m))
          r.failure = "cannot write " + manifest;
      }
      const runner::Sweep::Counters& c = sweep.counters();
      const runner::ResultCache::Counters cc = cache.counters();
      if (c.simulated != 0 || c.compiles != 0 || c.failed != 0 ||
          c.cacheHits != specs.size())
        r.failure = "rerun " + std::to_string(k) + ": " +
                    std::to_string(c.simulated) + " simulated, " +
                    std::to_string(c.compiles) + " compiled, " +
                    std::to_string(c.cacheHits) + " of " +
                    std::to_string(specs.size()) + " cache hits";
      double busy = 0;
      for (const trace::HostSpan& h : sweep.hostSpans())
        busy += static_cast<double>(h.endMicros - h.startMicros);
      const double threads =
          static_cast<double>(sweep.wallMicros()) * sweep.threadCount();
      const std::lock_guard<std::mutex> lock(mutex);
      counters.simulated += c.simulated;
      counters.compiles += c.compiles;
      cacheCounters.hits += cc.hits;
      cacheCounters.misses += cc.misses;
      cacheCounters.storeFailures += cc.storeFailures;
      threadUs += threads;
      idleUs += threads - busy;
      if (k == 0) {
        firstRecords = sweep.results();
        for (const std::string& why :
             checkGrid(specs, sweep.results(), sweep.outcomes(), baseline))
          fillFailures.push_back(why);
      }
    }
    r.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
               .count();
    // Untimed.
    r.report = readFile(report);
    syncFile(report);
    syncFile(manifest);
    return r;
  };

  // The first rerun, alone and outside the rounds, is the reference: its
  // records pass the grid checks and every later report must equal its
  // report byte for byte.
  const Rerun first = rerun(0, 0);
  ++out.attempted;
  if (!first.failure.empty()) out.fail(first.failure);
  else if (!fillFailures.empty())
    out.fail(fillFailures.front() + " (" +
             std::to_string(fillFailures.size()) + " problems)");

  // sim_mips (untraced runs): after each round, every client simulates one
  // fig3 point of the first kernel again, the policies in turn, on the
  // program the fill simulated for them (compiled once, here). Only the
  // sim::Simulation constructor and run are timed, as in
  // RunRecord::wallMicros, and each replay must reproduce its cached record.
  std::vector<const runner::JobSpec*> replaySpecs;
  std::vector<const runner::RunRecord*> replayRecords;
  std::unique_ptr<const backend::CompileResult> replayCompiled;
  std::unique_ptr<const uarch::PredecodedProgram> replayProgram;
  if (!args.trace && firstRecords.size() == specs.size()) {
    for (std::size_t i = 0; i < specs.size(); ++i)
      if (specs[i].kernel == kernels.front() && isFig3Point(specs[i])) {
        replaySpecs.push_back(&specs[i]);
        replayRecords.push_back(&firstRecords[i]);
      }
    const runner::JobSpec& s = *replaySpecs.front();
    ir::Module mod = workloads::buildKernel(s.kernel, s.scale);
    backend::CompileOptions opts;
    opts.annotationBudget = s.budget;
    opts.depOptions.propagateThroughMemory = s.memoryProp;
    replayCompiled = std::make_unique<const backend::CompileResult>(
        backend::compile(mod, opts));
    replayProgram = std::make_unique<const uarch::PredecodedProgram>(
        replayCompiled->program);
  }
  const auto replay = [&](std::size_t j) {
    Replay r;
    const runner::JobSpec& s = *replaySpecs[j];
    const auto t0 = Clock::now();
    sim::Simulation sim(*replayProgram, s.cfg, s.policy);
    const uarch::RunExit exit = sim.run(s.maxCycles);
    r.micros =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    r.insts = static_cast<double>(sim.core().committedInsts());
    if (exit != uarch::RunExit::Halted ||
        sim.core().cycle() != replayRecords[j]->summary.cycles ||
        sim.core().committedInsts() != replayRecords[j]->summary.insts)
      r.failure = s.kernel + "/" + s.policy + " replay ran " +
                  std::to_string(sim.core().cycle()) + " cycles, " +
                  std::to_string(sim.core().committedInsts()) +
                  " insts, unlike its cached record";
    return r;
  };
  std::vector<Replay> replays; // in policy turn order

  runner::ThreadPool pool(clients);
  std::vector<double> opMs, roundSeconds;
  std::uint64_t next = 1; // op id of the round's first rerun
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    std::vector<Rerun> results(static_cast<std::size_t>(perRound));
    std::atomic<int> claimed{0};
    std::vector<std::future<void>> futures;
    const auto t0 = Clock::now();
    for (int c = 0; c < clients; ++c)
      futures.push_back(pool.submit([&, c] {
        for (int i; (i = claimed++) < perRound;)
          results[static_cast<std::size_t>(i)] = rerun(next + i, c);
      }));
    runner::ThreadPool::waitAll(futures);
    roundSeconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    next += static_cast<std::uint64_t>(perRound);
    for (Rerun& r : results) {
      ++out.attempted;
      opMs.push_back(r.ms);
      if (r.failure.empty() && r.report != first.report)
        r.failure = "a rerun's report differs from the first rerun's";
      if (!r.failure.empty()) out.fail(r.failure);
    }

    if (replayProgram) {
      const std::size_t from = replays.size();
      replays.resize(from + static_cast<std::size_t>(clients));
      futures.clear();
      for (std::size_t i = from; i < replays.size(); ++i)
        futures.push_back(pool.submit([&, i] {
          replays[i] = replay(i % replaySpecs.size());
        }));
      runner::ThreadPool::waitAll(futures);
      for (std::size_t i = from; i < replays.size(); ++i) {
        ++out.attempted;
        if (!replays[i].failure.empty()) out.fail(replays[i].failure);
      }
    }
    if (std::chrono::duration<double>(Clock::now() - start).count() >=
        args.seconds)
      break;
  }

  if (!args.trace) {
    // Whole turns of the policies only, so every run weighs them alike.
    std::size_t n = replays.size();
    if (n >= replaySpecs.size()) n -= n % replaySpecs.size();
    double insts = 0, micros = 0;
    for (std::size_t i = 0; i < n; ++i) {
      insts += replays[i].insts;
      micros += replays[i].micros;
    }
    out.notes.push_back("rounds " + std::to_string(roundSeconds.size()) +
                        " of " + std::to_string(perRound) +
                        " reruns, op samples " + std::to_string(opMs.size()) +
                        ", replays " + std::to_string(n) + " of " +
                        kernels.front() + " for sim_mips");
    out.add("setup_s", setupS, "s");
    out.add("wall_s", median(roundSeconds), "s");
    out.add("sim_mips", micros > 0 ? insts / micros : 0, "MIPS");
    out.add("op_ms_p50", roundQuantile(opMs, perRound, 0.5), "ms");
    out.add("op_ms_p90", roundQuantile(opMs, perRound, 0.9), "ms");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
  }

  // Layer probe (traced run only): ResultCache::lookup on the warm cache,
  // the hit path each rerun takes once per point.
  {
    runner::ResultCache probeCache({dir, runner::kCodeVersionSalt});
    const int lookups = args.tiny ? 1 : 20;
    for (int r = 0; r < lookups; ++r) {
      Scope op(spans, "probe.lookup", kProbeOp + static_cast<unsigned>(r));
      for (const runner::JobSpec& s : specs) {
        Scope l(spans, "runner.cache_lookup", kProbeOp + r);
        probeCache.lookup(runner::describe(s));
      }
    }
  }

  // The reference rerun (op 0) is outside the rounds.
  const auto t = spans.totals(1, kProbeOp);
  const double reruns = static_cast<double>(opMs.size());
  addSimMetrics(firstRecords, out);
  out.add("levioso_overhead_pct", leviosoOverheadPct(specs, firstRecords),
          "%");
  out.add("runner.simulated", static_cast<double>(counters.simulated),
          "count");
  out.add("runner.compiles", static_cast<double>(counters.compiles), "count");
  out.add("runner.cache_hits", static_cast<double>(cacheCounters.hits),
          "count");
  out.add("runner.cache_misses", static_cast<double>(cacheCounters.misses),
          "count");
  out.add("runner.cache_store_failures",
          static_cast<double>(cacheCounters.storeFailures), "count");
  out.add("runner.cache_lookup_us",
          meanOf(spans.totals(kProbeOp), "runner.cache_lookup", 1), "us");
  out.add("runner.sweep_ms", totalOf(t, "runner.sweep") / 1000 / reruns, "ms");
  out.add("runner.report_ms", totalOf(t, "runner.report") / 1000 / reruns,
          "ms");
  out.add("runner.manifest_ms", totalOf(t, "runner.manifest") / 1000 / reruns,
          "ms");
  out.add("runner.pool_idle_pct", threadUs > 0 ? 100.0 * idleUs / threadUs : 0,
          "%");
  finishPerLayer(out);

  const double rerunUs = totalOf(t, "warm.rerun");
  char share[320];
  std::snprintf(share, sizeof(share),
                "warm-rerun: runner.sweep %.1f%%, runner.report %.1f%%, "
                "runner.manifest %.1f%% of a rerun (sweep set-up and "
                "tear-down the rest); runner.simulated %llu, "
                "runner.compiles %llu",
                100 * totalOf(t, "runner.sweep") / rerunUs,
                100 * totalOf(t, "runner.report") / rerunUs,
                100 * totalOf(t, "runner.manifest") / rerunUs,
                static_cast<unsigned long long>(counters.simulated),
                static_cast<unsigned long long>(counters.compiles));
  out.notes.push_back(share);
  writeLayerDump(args, spans, out, median(roundSeconds), share);
  return out;
}

} // namespace perfbench
