// Shared plumbing of the perfbench binary: arguments, the result a
// workload hands back, in-memory spans for traced runs and the few
// statistics the metrics need. README.md defines every metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runner/job.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Worker threads every workload uses: 4, or fewer on a smaller host.
int fixedJobs();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string repoRoot = ".";  ///< holds bench/baselines/fig3_overhead.json
  std::string workDir;         ///< per-process caches and reports
  std::string traceDir;        ///< traced-run artifacts (kept)
  /// Process start-up (launch to main()), measured by the launcher; 0
  /// when launched directly.
  double startupSeconds = 0;
  // Self-test knobs (selftest.py); never set by a measured run.
  bool tiny = false;          ///< two kernels / few programs / few reruns
  bool perturbFig3 = false;   ///< expect one fig3 cycle count off by one
  std::string weakenPolicy;   ///< fuzz with CheckOptions::weakenPolicy
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload reports. Untraced runs fill the end-to-end metrics,
/// traced runs the per-layer ones; `notes` are printed as plain lines.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record one failed check; the first few are kept as notes.
  void fail(const std::string& why);
};

/// Median of `reps` timed runs of `setup` in seconds, plus the process
/// start-up before main() (Args::startupSeconds). The last run's products
/// stay in place for the measured phase, so work moved into set-up shows
/// in setup_s.
template <class F> double timeSetup(const Args& args, int reps, F&& setup);

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// op_ms_*: the median over rounds of each round's q-quantile, for op
/// times in run order, `perRound` a round. A slow spell of the host that
/// spans a minority of a run's rounds moves it little.
double roundQuantile(const std::vector<double>& opMs, std::size_t perRound,
                     double q);
double peakRssMb();

// -- spans (traced runs only) ---------------------------------------------

/// Spans recorded around the benchmark's calls into each layer. Kept in
/// memory and written once at the end; the span a thread has open is the
/// parent of the next one it begins, and spans of one op share its id.
class Spans {
public:
  struct Span {
    std::string name;
    std::int64_t startUs = 0;
    std::int64_t endUs = 0;
    int parent = -1;
    std::uint64_t op = 0;
    int thread = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}
  std::int64_t nowUs() const;
  /// Open a span on the calling thread; -1 (a no-op) when disabled.
  int begin(const char* name, std::uint64_t op);
  void end(int id);
  /// Add an already finished span (e.g. one of Sweep::hostSpans()).
  void add(Span s);
  /// The calling thread's open span (-1 if none).
  static int current();

  struct Totals {
    std::uint64_t count = 0;
    double totalUs = 0; ///< summed durations
    double selfUs = 0;  ///< durations minus the union of their children
  };
  /// Per span name, over the spans whose op id is in [fromOp, toOp).
  std::map<std::string, Totals> totals(std::uint64_t fromOp = 0,
                                       std::uint64_t toOp = ~0ull) const;
  /// Chrome trace-event JSON (ui.perfetto.dev); args carry id/parent/op.
  void writeChromeTrace(const std::string& path) const;

private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_; ///< guards spans_
  std::vector<Span> spans_;
};

/// Op ids of the layer probe start here, apart from the measured ops.
inline constexpr std::uint64_t kProbeOp = 1'000'000'000;

/// Mean duration of the spans named `name` in `totals`, divided by `scale`
/// (1 for microseconds, 1000 for milliseconds); 0 when there are none.
double meanOf(const std::map<std::string, Spans::Totals>& totals,
              const char* name, double scale);
/// Summed duration (or self time) in microseconds; 0 when there are none.
double totalOf(const std::map<std::string, Spans::Totals>& totals,
               const char* name, bool self = false);

/// RAII span; a disabled Spans makes it free.
class Scope {
public:
  Scope(Spans& spans, const char* name, std::uint64_t op)
      : spans_(spans), id_(spans.begin(name, op)) {}
  ~Scope() { spans_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Spans& spans_;
  int id_;
};

// -- shared grid ----------------------------------------------------------

/// The seven policies in Table 1 order (secure::policyNames()).
const std::vector<std::string>& policies();

/// The fig3 ∪ fig6 grid over `kernels`: per kernel the 7 fig3 policies,
/// then levioso at K ∈ {0, 1, 2, 8, ∞} and at K=∞ without memory
/// propagation (fig6's K=4 and unsafe points are fig3's). 13 per kernel.
std::vector<lev::runner::JobSpec> gridSpecs(
    const std::vector<std::string>& kernels);

/// True for the grid's fig3 points (default budget and propagation).
bool isFig3Point(const lev::runner::JobSpec& spec);

/// Checks shared by repro-cold and warm-rerun over one run's records:
/// every point ok, every policy commits unsafe's instruction count on the
/// same kernel (policies are timing-only), and every fig3 point's cycles
/// equal `fig3Cycles`. Returns one line per failed point.
std::vector<std::string> checkGrid(
    const std::vector<lev::runner::JobSpec>& specs,
    const std::vector<lev::runner::RunRecord>& records,
    const std::vector<lev::runner::JobOutcome>& outcomes,
    const std::map<std::string, std::uint64_t>& fig3Cycles);

/// Geomean over kernels of levioso (K=4) / unsafe cycles, minus 1, in %.
double leviosoOverheadPct(const std::vector<lev::runner::JobSpec>& specs,
                          const std::vector<lev::runner::RunRecord>& records);
/// The same geomean from "kernel/policy" -> cycles (the fig3 baseline).
double leviosoOverheadPct(const std::vector<std::string>& kernels,
                          const std::map<std::string, std::uint64_t>& cycles);

/// "kernel/policy" -> cycles of every fig3 point in the committed baseline.
std::map<std::string, std::uint64_t> loadFig3Baseline(const Args& args);

/// Per-policy simulator metrics (mips, host_s, cycles, delay_cycles) and
/// the four whole-run counts, from finished run records.
void addSimMetrics(const std::vector<lev::runner::RunRecord>& records,
                   Outcome& out);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
/// Workloads fill what they measure; the rest read 0 (layer not used).
const std::vector<std::pair<std::string, std::string>>& perLayerNames();

/// Copy `measured` into the full per-layer list (0 for the rest).
void finishPerLayer(Outcome& out);

/// Write the per-layer dump and the span totals next to the span file.
void writeLayerDump(const Args& args, const Spans& spans, const Outcome& out,
                    double wallSeconds, const std::string& shareLine);

std::string joinPath(const std::string& a, const std::string& b);
/// Create `dir` (and parents); throws on failure.
void makeDirs(const std::string& dir);
void removeTree(const std::string& dir);

// -- implementation of the template ---------------------------------------

template <class F> double timeSetup(const Args& args, int reps, F&& setup) {
  std::vector<double> runs;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    runs.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return args.startupSeconds + median(runs);
}

} // namespace perfbench
