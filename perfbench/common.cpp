#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include "levioso/annotation.hpp"
#include "secure/policies.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/jsonparse.hpp"
#include "support/table.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using lev::runner::JobOutcome;
using lev::runner::JobSpec;
using lev::runner::RunRecord;

int fixedJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(4u, hw));
}

void Outcome::fail(const std::string& why) {
  ++failed;
  if (failed <= 5) notes.push_back("check failed: " + why);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double roundQuantile(const std::vector<double>& opMs, std::size_t perRound,
                     double q) {
  std::vector<double> perRoundQ;
  for (std::size_t i = 0; i + perRound <= opMs.size(); i += perRound)
    perRoundQ.push_back(quantile(
        {opMs.begin() + static_cast<std::ptrdiff_t>(i),
         opMs.begin() + static_cast<std::ptrdiff_t>(i + perRound)},
        q));
  return median(perRoundQ);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

// -- spans ----------------------------------------------------------------

namespace {
thread_local std::vector<int> tOpen; ///< this thread's open span ids

/// Small dense id of the calling thread (its trace track).
int threadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next++;
  return index;
}
} // namespace

std::int64_t Spans::nowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

int Spans::current() { return tOpen.empty() ? -1 : tOpen.back(); }

int Spans::begin(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = current();
  s.op = op;
  s.thread = threadIndex();
  s.startUs = nowUs();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  tOpen.push_back(id);
  return id;
}

void Spans::end(int id) {
  if (id < 0) return;
  const std::int64_t t = nowUs();
  tOpen.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].endUs = t;
}

void Spans::add(Span s) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
}

std::map<std::string, Spans::Totals> Spans::totals(std::uint64_t fromOp,
                                                   std::uint64_t toOp) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.startUs, s.endUs});
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op < fromOp || s.op >= toOp) continue;
    // Children may run in parallel (sweep jobs on pool workers): subtract
    // the union of their intervals, clipped to the parent's.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, curLo = 0, curHi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.startUs);
      hi = std::min(hi, s.endUs);
      if (hi <= lo) continue;
      if (lo > curHi) {
        if (curHi > curLo) covered += curHi - curLo;
        curLo = lo;
        curHi = hi;
      } else {
        curHi = std::max(curHi, hi);
      }
    }
    if (curHi > curLo) covered += curHi - curLo;
    Totals& t = out[s.name];
    ++t.count;
    t.totalUs += static_cast<double>(s.endUs - s.startUs);
    t.selfUs += static_cast<double>(s.endUs - s.startUs - covered);
  }
  return out;
}

void Spans::writeChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw lev::Error("cannot write " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  lev::JsonWriter w(os, 0);
  w.beginObject();
  w.key("traceEvents").beginArray();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.beginObject();
    w.field("name", s.name);
    w.field("ph", "X");
    w.field("ts", s.startUs);
    w.field("dur", s.endUs - s.startUs);
    w.field("pid", 1);
    w.field("tid", s.thread);
    w.key("args").beginObject();
    w.field("id", static_cast<std::int64_t>(i));
    w.field("parent", s.parent);
    w.field("op", s.op);
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  os << "\n";
}

double meanOf(const std::map<std::string, Spans::Totals>& totals,
              const char* name, double scale) {
  const auto it = totals.find(name);
  return it == totals.end() || it->second.count == 0
             ? 0.0
             : it->second.totalUs / static_cast<double>(it->second.count) /
                   scale;
}

double totalOf(const std::map<std::string, Spans::Totals>& totals,
               const char* name, bool self) {
  const auto it = totals.find(name);
  if (it == totals.end()) return 0.0;
  return self ? it->second.selfUs : it->second.totalUs;
}

// -- shared grid ----------------------------------------------------------

const std::vector<std::string>& policies() {
  return lev::secure::policyNames();
}

std::vector<JobSpec> gridSpecs(const std::vector<std::string>& kernels) {
  struct Variant {
    int budget;
    bool memProp;
  };
  static const Variant kFig6[] = {{0, true},
                                  {1, true},
                                  {2, true},
                                  {8, true},
                                  {lev::levioso::kUnlimitedBudget, true},
                                  {lev::levioso::kUnlimitedBudget, false}};
  std::vector<JobSpec> specs;
  for (const std::string& kernel : kernels) {
    JobSpec s;
    s.kernel = kernel;
    for (const std::string& p : policies()) {
      s.policy = p;
      specs.push_back(s);
    }
    s.policy = "levioso";
    for (const Variant& v : kFig6) {
      s.budget = v.budget;
      s.memoryProp = v.memProp;
      specs.push_back(s);
    }
  }
  return specs;
}

bool isFig3Point(const JobSpec& spec) {
  const JobSpec def;
  return spec.budget == def.budget && spec.memoryProp == def.memoryProp;
}

std::vector<std::string> checkGrid(
    const std::vector<JobSpec>& specs, const std::vector<RunRecord>& records,
    const std::vector<JobOutcome>& outcomes,
    const std::map<std::string, std::uint64_t>& fig3Cycles) {
  std::map<std::string, std::uint64_t> unsafeInsts;
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (specs[i].policy == "unsafe" && outcomes[i].ok)
      unsafeInsts[specs[i].kernel] = records[i].summary.insts;
  std::vector<std::string> bad;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobSpec& s = specs[i];
    const std::string label = s.kernel + "/" + s.policy + " K=" +
                              std::to_string(s.budget) +
                              (s.memoryProp ? "" : " no-mem");
    std::string why;
    if (!outcomes[i].ok) {
      why = label + ": " + outcomes[i].message;
    } else if (records[i].summary.insts != unsafeInsts[s.kernel]) {
      why = label + " committed " + std::to_string(records[i].summary.insts) +
            " insts, unsafe " + std::to_string(unsafeInsts[s.kernel]);
    } else if (isFig3Point(s)) {
      const auto it = fig3Cycles.find(s.kernel + "/" + s.policy);
      if (it == fig3Cycles.end())
        why = label + " is missing from the fig3 baseline";
      else if (it->second != records[i].summary.cycles)
        why = label + " ran " + std::to_string(records[i].summary.cycles) +
              " cycles, baseline " + std::to_string(it->second);
    }
    if (!why.empty()) bad.push_back(why);
  }
  return bad;
}

double leviosoOverheadPct(const std::vector<std::string>& kernels,
                          const std::map<std::string, std::uint64_t>& cycles) {
  std::vector<double> ratios;
  for (const std::string& kernel : kernels) {
    const auto base = cycles.find(kernel + "/unsafe");
    const auto lev = cycles.find(kernel + "/levioso");
    if (base != cycles.end() && lev != cycles.end() && base->second > 0 &&
        lev->second > 0)
      ratios.push_back(static_cast<double>(lev->second) /
                       static_cast<double>(base->second));
  }
  return ratios.empty() ? 0 : (lev::geomean(ratios) - 1.0) * 100.0;
}

double leviosoOverheadPct(const std::vector<JobSpec>& specs,
                          const std::vector<RunRecord>& records) {
  std::vector<std::string> kernels;
  std::map<std::string, std::uint64_t> cycles;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!isFig3Point(specs[i])) continue;
    if (kernels.empty() || kernels.back() != specs[i].kernel)
      kernels.push_back(specs[i].kernel);
    cycles[specs[i].kernel + "/" + specs[i].policy] =
        records[i].summary.cycles;
  }
  return leviosoOverheadPct(kernels, cycles);
}

std::map<std::string, std::uint64_t> loadFig3Baseline(const Args& args) {
  const lev::json::JsonValue doc = lev::json::parseFile(
      joinPath(args.repoRoot, "bench/baselines/fig3_overhead.json"));
  std::map<std::string, std::uint64_t> cycles;
  for (const lev::json::JsonValue& r : doc.at("results").items)
    cycles[r.at("kernel").str + "/" + r.at("policy").str] =
        static_cast<std::uint64_t>(r.at("cycles").number);
  LEV_CHECK(!cycles.empty(), "fig3 baseline has no results");
  return cycles;
}

void addSimMetrics(const std::vector<RunRecord>& records, Outcome& out) {
  struct PerPolicy {
    double insts = 0, micros = 0, cycles = 0, delay = 0;
  };
  std::map<std::string, PerPolicy> per;
  double fetch = 0, squash = 0, l1dMisses = 0, mispredicts = 0;
  const auto stat = [](const RunRecord& r, const char* name) {
    const auto it = r.stats.find(name);
    return it == r.stats.end() ? 0.0 : static_cast<double>(it->second);
  };
  for (const RunRecord& r : records) {
    PerPolicy& p = per[r.summary.policy];
    p.insts += static_cast<double>(r.summary.insts);
    p.micros += static_cast<double>(r.wallMicros);
    p.cycles += static_cast<double>(r.summary.cycles);
    p.delay += stat(r, "hist.delay.transmitter.sum");
    fetch += stat(r, "fetch.insts");
    squash += stat(r, "squash.insts");
    l1dMisses += stat(r, "l1d.misses");
    mispredicts += stat(r, "bp.mispredicts");
  }
  for (const std::string& name : policies()) {
    const PerPolicy& p = per[name];
    out.add("sim." + name + ".mips", p.micros > 0 ? p.insts / p.micros : 0,
            "MIPS");
    out.add("sim." + name + ".host_s", p.micros / 1e6, "s");
    out.add("sim." + name + ".cycles", p.cycles, "cycles");
    out.add("sim." + name + ".delay_cycles", p.delay, "cycles");
  }
  out.add("sim.fetch_insts", fetch, "count");
  out.add("sim.squash_insts", squash, "count");
  out.add("sim.l1d_misses", l1dMisses, "count");
  out.add("sim.mispredicts", mispredicts, "count");
}

const std::vector<std::pair<std::string, std::string>>& perLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v;
    for (const std::string& p : policies())
      v.push_back({"sim." + p + ".mips", "MIPS"});
    for (const std::string& p : policies())
      v.push_back({"sim." + p + ".host_s", "s"});
    v.push_back({"sim.ctor_us", "us"});
    for (const std::string& p : policies())
      v.push_back({"sim." + p + ".cycles", "cycles"});
    for (const std::string& p : policies())
      v.push_back({"sim." + p + ".delay_cycles", "cycles"});
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"sim.fetch_insts", "count"},       {"sim.squash_insts", "count"},
        {"sim.l1d_misses", "count"},        {"sim.mispredicts", "count"},
        {"levioso_overhead_pct", "%"},
        {"backend.compile_us", "us"},       {"backend.compiles", "count"},
        {"ir.optimize_us", "us"},           {"levioso.analysis_us", "us"},
        {"levioso.dep_entries", "count"},   {"levioso.overflowed", "count"},
        {"workloads.build_ms", "ms"},       {"fuzz.progen_us", "us"},
        {"uarch.predecode_us", "us"},       {"fuzz.interp_us", "us"},
        {"fuzz.check_ms", "ms"},            {"fuzz.violations", "count"},
        {"fuzz.divergences", "count"},      {"fuzz.sim_failures", "count"},
        {"runner.simulated", "count"},      {"runner.compiles", "count"},
        {"runner.cache_hits", "count"},     {"runner.cache_misses", "count"},
        {"runner.cache_store_failures", "count"},
        {"runner.cache_lookup_us", "us"},   {"runner.sweep_ms", "ms"},
        {"runner.report_ms", "ms"},         {"runner.manifest_ms", "ms"},
        {"runner.pool_idle_pct", "%"}};
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return names;
}

void finishPerLayer(Outcome& out) {
  std::map<std::string, double> measured;
  for (const Metric& m : out.metrics) {
    LEV_CHECK(measured.emplace(m.name, m.value).second,
              "per-layer metric reported twice: " + m.name);
  }
  std::vector<Metric> full;
  for (const auto& [name, unit] : perLayerNames()) {
    const auto it = measured.find(name);
    full.push_back({name, it == measured.end() ? 0.0 : it->second, unit});
    if (it != measured.end()) measured.erase(it);
  }
  LEV_CHECK(measured.empty(),
            "unknown per-layer metric: " + measured.begin()->first);
  out.metrics = std::move(full);
}

void writeLayerDump(const Args& args, const Spans& spans, const Outcome& out,
                    double wallSeconds, const std::string& shareLine) {
  const std::string& dir = args.traceDir;
  makeDirs(dir);
  spans.writeChromeTrace(joinPath(dir, args.workload + ".spans.json"));
  const std::string path = joinPath(dir, args.workload + ".layers.json");
  std::ofstream os(path);
  if (!os) throw lev::Error("cannot write " + path);
  lev::JsonWriter w(os);
  w.beginObject();
  w.field("workload", args.workload);
  w.field("seed", args.seed);
  w.field("traced_wall_s", wallSeconds);
  w.field("share", shareLine);
  w.key("per_layer").beginObject();
  for (const Metric& m : out.metrics) {
    w.key(m.name).beginObject();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.endObject();
  }
  w.endObject();
  w.key("spans").beginObject();
  for (const auto& [name, t] : spans.totals()) {
    w.key(name).beginObject();
    w.field("count", t.count);
    w.field("total_us", t.totalUs);
    w.field("self_us", t.selfUs);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  os << "\n";
}

std::string joinPath(const std::string& a, const std::string& b) {
  return (fs::path(a) / b).string();
}

void makeDirs(const std::string& dir) { fs::create_directories(dir); }

void removeTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

} // namespace perfbench
