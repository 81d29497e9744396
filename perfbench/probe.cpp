#include "levioso/annotation.hpp"
#include "levioso/branchdeps.hpp"
#include "ir/passes.hpp"
#include "workloads.hpp"

namespace perfbench {

ProbeCompile probeCompile(Spans& spans, std::uint64_t op,
                          const std::function<lev::ir::Module()>& build,
                          const char* buildSpan, int budget, bool memoryProp) {
  lev::backend::CompileOptions opts;
  opts.annotationBudget = budget;
  opts.depOptions.propagateThroughMemory = memoryProp;
  lev::ir::Module mod = [&] {
    Scope s(spans, buildSpan, op);
    return build();
  }();
  ProbeCompile out;
  {
    // backend::compile starts with ir::optimize; running that step first
    // and compiling with optimize off does the same work in the same order
    // and makes ir.optimize a measured child of backend.compile.
    Scope s(spans, "backend.compile", op);
    {
      Scope o(spans, "ir.optimize", op);
      lev::ir::optimize(mod);
    }
    opts.optimize = false;
    out.result = std::make_unique<const lev::backend::CompileResult>(
        lev::backend::compile(mod, opts));
  }
  {
    // BranchDepAnalysis runs inside compile(), interleaved with lowering,
    // so it is timed by running it again on the compiled module (the same
    // input the compile saw). This span is not a child of backend.compile.
    Scope s(spans, "levioso.analysis", op);
    for (const auto& fn : mod.functions()) {
      const lev::levioso::BranchDepAnalysis analysis(mod, *fn,
                                                     opts.depOptions);
      lev::levioso::encodeAnnotations(analysis, *fn, budget);
    }
  }
  {
    Scope s(spans, "uarch.predecode", op);
    out.predecoded = std::make_unique<const lev::uarch::PredecodedProgram>(
        out.result->program);
  }
  return out;
}

} // namespace perfbench
