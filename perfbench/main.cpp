// perfbench: the repository benchmark. Runs one of three closed-loop
// workloads through the layers' public functions, checks every output and
// prints one JSON result line last (README.md):
//
//   perfbench --workload repro-cold|fuzz-oracle|warm-rerun --seed N
//             --seconds S --trace 0|1 --repo DIR --work-dir DIR
//             [--startup-s S] [--tiny] [--perturb-fig3] [--weaken POLICY]
//   perfbench --startup-probe NS
//
// --startup-probe prints the seconds from NS (CLOCK_MONOTONIC nanoseconds,
// taken by the launcher just before it started this process) to main() and
// exits; run.py takes the median of several such launches and passes it as
// --startup-s, the process start-up part of setup_s.
//
// Exit code: 0 when every check passed, 1 when one failed (the result line
// is still printed, with "correct": false), 2 on a usage or set-up error
// (no result line).
#include <unistd.h>

#include <charconv>
#include <exception>
#include <iostream>
#include <limits>
#include <string>

#include "common.hpp"
#include "support/cliparse.hpp"
#include "support/log.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

Args parse(int argc, char** argv) {
  Args a;
  bool haveWorkload = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw lev::Error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = next();
      haveWorkload = true;
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(
          lev::requireInt("perfbench", "--seed", next(), 0,
                          std::numeric_limits<std::int64_t>::max()));
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(
          lev::requireInt("perfbench", "--seconds", next(), 1, 3600));
    } else if (flag == "--trace") {
      a.trace = lev::requireInt("perfbench", "--trace", next(), 0, 1) == 1;
      haveTrace = true;
    } else if (flag == "--repo") {
      a.repoRoot = next();
    } else if (flag == "--work-dir") {
      a.workDir = next();
    } else if (flag == "--startup-s") {
      a.startupSeconds = std::stod(next());
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--perturb-fig3") {
      a.perturbFig3 = true;
    } else if (flag == "--weaken") {
      a.weakenPolicy = next();
    } else {
      throw lev::Error("unknown argument " + flag);
    }
  }
  if (!haveWorkload || !haveTrace || a.workDir.empty())
    throw lev::Error("--workload, --trace and --work-dir are required");
  return a;
}

} // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--startup-probe") {
    const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now().time_since_epoch());
    std::cout << num(static_cast<double>(now.count() - std::stoll(argv[2])) /
                     1e9)
              << "\n";
    return 0;
  }
  Args args;
  Outcome out;
  try {
    args = parse(argc, argv);
    lev::log::setThreshold(lev::log::Level::Warn);
    // Per-process scratch: fresh caches and reports, removed on exit.
    const std::string scratch = joinPath(
        args.workDir, "tmp-" + std::to_string(static_cast<long>(getpid())));
    removeTree(scratch);
    makeDirs(scratch);
    Args inner = args;
    inner.workDir = scratch;
    inner.traceDir = joinPath(args.workDir, "trace");
    if (args.workload == "repro-cold") out = runReproCold(inner);
    else if (args.workload == "fuzz-oracle") out = runFuzzOracle(inner);
    else if (args.workload == "warm-rerun") out = runWarmRerun(inner);
    else throw lev::Error("unknown workload '" + args.workload + "'");
    removeTree(scratch);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  for (const std::string& note : out.notes) std::cout << note << "\n";
  const double errorPct =
      out.attempted == 0 ? 100.0
                         : 100.0 * static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::cout << "error_pct " << num(errorPct) << " % (" << out.failed
            << " of " << out.attempted << " ops failed)\n";
  for (const Metric& m : out.metrics)
    std::cout << m.name << " " << num(m.value) << " " << m.unit << "\n";

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
