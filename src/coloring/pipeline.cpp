#include "agc/coloring/pipeline.hpp"

#include <algorithm>
#include <functional>
#include <initializer_list>

#include "agc/coloring/ag.hpp"
#include "agc/coloring/ag3.hpp"
#include "agc/coloring/kuhn_wattenhofer.hpp"
#include "agc/coloring/reduction.hpp"
#include "agc/coloring/stage_plan.hpp"
#include "stage.hpp"

namespace agc::coloring {

using detail::finish;
using detail::fresh_report;
using detail::run_stage;

runtime::IterativeResult run_plan(graph::GraphView g, StagePlan plan,
                                  const runtime::IterativeOptions& opts) {
  if (plan.rule == nullptr) {
    runtime::IterativeResult r;
    r.colors = std::move(plan.initial);
    r.converged = true;
    return r;
  }
  runtime::IterativeOptions capped = opts;
  capped.max_rounds = std::min(opts.max_rounds, plan.max_rounds);
  return run_locally_iterative(g, std::move(plan.initial), *plan.rule, capped);
}

StagePlan plan_delta_plus_one_stage(std::size_t index, graph::GraphView g,
                                    std::vector<Color> colors,
                                    std::uint64_t id_space_factor) {
  const std::size_t delta = g.max_degree();
  switch (index) {
    case 0:
      return plan_linial(std::move(colors),
                         std::max<std::uint64_t>(g.n(), 1) *
                             std::max<std::uint64_t>(1, id_space_factor),
                         delta);
    case 1:
      return plan_ag(std::move(colors), delta);
    default:
      return plan_reduce(std::move(colors), delta + 1);
  }
}

namespace {

/// One stage of a front door: its event tag and its body, which maps the
/// previous stage's coloring to this stage's result.
struct Stage {
  const char* tag;
  std::function<runtime::IterativeResult(std::vector<Color>,
                                         const runtime::IterativeOptions&)>
      run;
};

/// Stage `index` of color_delta_plus_one, as planned by
/// plan_delta_plus_one_stage and run on the engine.
Stage planned(graph::GraphView g, const PipelineOptions& opts,
              std::size_t index, const char* tag) {
  return {tag, [g, &opts, index](std::vector<Color> colors,
                                 const runtime::IterativeOptions& iter) {
            return run_plan(g,
                            plan_delta_plus_one_stage(index, g, std::move(colors),
                                                      opts.id_space_factor),
                            iter);
          }};
}

/// Run `stages` back to back from the identity coloring, each bracketed and
/// folded by run_stage; stage i's rounds go to rounds_linial, rounds_core and
/// rounds_finish in turn.
PipelineReport run_pipeline(graph::GraphView g, const PipelineOptions& opts,
                            std::initializer_list<Stage> stages) {
  PipelineReport rep = fresh_report();
  std::size_t* const split[] = {&rep.rounds_linial, &rep.rounds_core,
                                &rep.rounds_finish};
  std::vector<Color> colors = identity_coloring(g.n());
  std::size_t i = 0;
  for (const Stage& st : stages) {
    auto r = run_stage(rep, opts, st.tag, i, [&](const auto& iter) {
      return st.run(std::move(colors), iter);
    });
    *split[i++] = r.rounds;
    colors = std::move(r.colors);
  }
  rep.colors = std::move(colors);
  finish(rep, g);
  return rep;
}

}  // namespace

PipelineReport color_delta_plus_one(graph::GraphView g,
                                    const PipelineOptions& opts) {
  return run_pipeline(g, opts,
                      {planned(g, opts, 0, "linial"), planned(g, opts, 1, "ag"),
                       planned(g, opts, 2, "reduce")});
}

PipelineReport color_delta_plus_one_exact(graph::GraphView g,
                                          const PipelineOptions& opts) {
  const std::size_t delta = g.max_degree();
  return run_pipeline(
      g, opts,
      {planned(g, opts, 0, "linial"),
       {"mixed", [&](std::vector<Color> colors, const auto& iter) {
          return exact_delta_plus_one(g, std::move(colors), delta, iter);
        }}});
}

PipelineReport color_kuhn_wattenhofer(graph::GraphView g,
                                      const PipelineOptions& opts) {
  const std::size_t delta = g.max_degree();
  return run_pipeline(
      g, opts,
      {planned(g, opts, 0, "linial"),
       {"kw", [&](std::vector<Color> colors, const auto& iter) {
          return kuhn_wattenhofer_reduce(g, std::move(colors), delta, iter);
        }}});
}

PipelineReport color_linial_greedy(graph::GraphView g,
                                   const PipelineOptions& opts) {
  // The greedy finish straight from Linial's O(Delta^2) colors.
  return run_pipeline(g, opts,
                      {planned(g, opts, 0, "linial"), planned(g, opts, 2, "reduce")});
}

PipelineReport color_o_delta(graph::GraphView g, const PipelineOptions& opts) {
  return run_pipeline(g, opts,
                      {planned(g, opts, 0, "linial"), planned(g, opts, 1, "ag")});
}

}  // namespace agc::coloring
