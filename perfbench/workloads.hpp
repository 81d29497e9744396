// The three workloads (README.md "Workloads"). Each runs its set-up, then
// its measured phase for args.seconds, and reports end-to-end metrics when
// untraced or per-layer metrics when traced.
#pragma once

#include <functional>
#include <memory>

#include "backend/compiler.hpp"
#include "common.hpp"
#include "ir/ir.hpp"
#include "uarch/predecode.hpp"

namespace perfbench {

Outcome runReproCold(const Args& args);
Outcome runFuzzOracle(const Args& args);
Outcome runWarmRerun(const Args& args);

/// Layer probe shared by repro-cold and fuzz-oracle: one compile split at
/// the public entry points, each in its own span (README.md "Traced run").
/// `build` makes the module (buildKernel or ProgramGen::generate).
/// Both on the heap: the predecode points into the program.
struct ProbeCompile {
  std::unique_ptr<const lev::backend::CompileResult> result;
  std::unique_ptr<const lev::uarch::PredecodedProgram> predecoded;
};
ProbeCompile probeCompile(Spans& spans, std::uint64_t op,
                          const std::function<lev::ir::Module()>& build,
                          const char* buildSpan, int budget, bool memoryProp);

} // namespace perfbench
