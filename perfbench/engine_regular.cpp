// Workload engine-regular: a random 64-regular graph on 20000 vertices,
// colored on the BSP round engine (SET-LOCAL) by the registry entries ag,
// exact, fyz and luby, each through coloring::find_algo(..)->run.
//
// Untraced: whole passes over the four algorithms for the window.
// Traced: every algorithm untraced and then with RunOptions::collect_phase_times
// under its span (tracing overhead and the runtime phases), the AG pipeline
// replayed stage by stage (linial_color, additive_group_color, reduce_colors)
// which must reproduce the registry's ag colors and rounds, and a 1-thread ag
// run for the exec speedup.

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>

#include "agc/coloring/ag.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/palette.hpp"
#include "agc/coloring/reduction.hpp"
#include "agc/coloring/registry.hpp"
#include "agc/exec/executor.hpp"
#include "agc/graph/checks.hpp"
#include "agc/graph/frozen.hpp"
#include "agc/graph/spec.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using agc::coloring::AlgoSpec;
using agc::coloring::PipelineOptions;
using agc::coloring::PipelineReport;
using agc::graph::Color;
using agc::graph::GraphView;
using agc::obs::Phase;

struct Algo {
  const char* name;
  const char* span;
};

constexpr Algo kAlgos[] = {
    {"ag", "coloring.find_algo(ag)->run"},
    {"exact", "coloring.find_algo(exact)->run"},
    {"fyz", "coloring.find_algo(fyz)->run"},
    {"luby", "coloring.find_algo(luby)->run"},
};

/// Correctness gate of one registry run: converged, proper (the report's flag
/// and the benchmark's own check), palette within the registry's bound, the
/// locally-iterative invariant for that family, and identical to `reference`
/// when one is given.
void check(Outcome& out, GraphView g, const AlgoSpec& spec, const PipelineOptions& opts,
           const PipelineReport& r, const std::vector<Color>* reference) {
  const std::uint64_t bound = spec.palette_bound(g.max_degree(), opts);
  const bool iterative = std::string(spec.family) == "locally-iterative";
  const bool ok = r.converged && r.proper && r.colors.size() == g.n() &&
                  agc::graph::is_proper_coloring(g, r.colors) && r.palette <= bound &&
                  agc::graph::max_color(r.colors) < bound &&
                  (!iterative || r.proper_each_round) &&
                  (reference == nullptr || r.colors == *reference);
  out.op(ok, std::string("engine-regular: ") + spec.name +
                 " failed its gate (converged, proper, palette bound, invariant, determinism)");
}

struct Pass {
  double seconds = 0;
  std::size_t rounds = 0;
  std::vector<PipelineReport> reports;
};

/// Run the four algorithms once each, timing and gating every call.
Pass run_pass(GraphView g, const PipelineOptions& opts, Outcome& out,
              const std::vector<std::vector<Color>>* reference) {
  Pass p;
  for (std::size_t i = 0; i < std::size(kAlgos); ++i) {
    const AlgoSpec& spec = *agc::coloring::find_algo(kAlgos[i].name);
    const Stopwatch w;
    PipelineReport r = spec.run(g, opts);
    p.seconds += w.seconds();
    p.rounds += r.rounds;
    check(out, g, spec, opts, r, reference == nullptr ? nullptr : &(*reference)[i]);
    p.reports.push_back(std::move(r));
  }
  return p;
}

std::string regular_spec(std::uint64_t n, std::uint64_t d, std::uint64_t seed) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "regular:n=%" PRIu64 ",d=%" PRIu64 ",seed=%" PRIu64, n, d,
                seed);
  return buf;
}

}  // namespace

Outcome run_engine_regular(const Args& a, Tracer& tr) {
  Outcome out;
  for (const Algo& algo : kAlgos) {
    if (agc::coloring::find_algo(algo.name) == nullptr) {
      out.require(false, std::string("engine-regular: registry has no entry ") + algo.name);
      return out;
    }
  }
  const std::size_t threads = std::min<std::size_t>(4, nproc());
  const auto spec = agc::graph::GraphSpec::parse(
      a.tiny ? regular_spec(400, 8, a.graph_seed) : regular_spec(20'000, 64, a.graph_seed));

  std::optional<agc::graph::FrozenGraph> f;
  std::vector<double> build_s;
  for (int i = 0; i < 5; ++i) {
    f.reset();
    const auto sp = tr.span("graph.GraphSpec::build_frozen");
    const Stopwatch w;
    f.emplace(spec.build_frozen());
    build_s.push_back(w.seconds());
  }
  const GraphView g(*f);
  out.stamp("threads", static_cast<double>(threads));
  out.stamp("graph", spec.to_string());
  out.stamp("n", static_cast<double>(g.n()));
  out.stamp("m", static_cast<double>(g.m()));
  out.stamp("delta", static_cast<double>(g.max_degree()));
  out.stamp("csr_bytes", static_cast<double>(f->memory_bytes()));
  out.stamp("llc_bytes", static_cast<double>(llc_bytes()));

  PipelineOptions opts;
  opts.run().executor = agc::exec::make_executor(threads);
  opts.run().seed = a.seed;

  if (!tr.enabled()) {
    // Latency is taken per pass, the unit color_s measures: the per-call
    // times of four different algorithms do not form one latency
    // distribution, and their median is whichever algorithm lands in the
    // middle.  Every call is still gated and counted in `attempted`.
    std::vector<double> pass_s;
    std::vector<std::vector<Color>> reference;
    std::size_t rounds = 0;
    const Stopwatch window;
    do {
      Pass p = run_pass(g, opts, out, reference.empty() ? nullptr : &reference);
      if (reference.empty()) {
        for (auto& r : p.reports) reference.push_back(std::move(r.colors));
      }
      pass_s.push_back(p.seconds);
      rounds = p.rounds;
    } while (window.seconds() < a.seconds);

    std::vector<double> sorted = pass_s;
    std::sort(sorted.begin(), sorted.end());
    double busy = 0;
    for (const double s : pass_s) busy += s;
    const auto [tail_pct, tail_s] = tail_sorted(sorted);
    out.stamp("op_samples", static_cast<double>(pass_s.size()));
    out.stamp("op_tail_pct", tail_pct);
    out.stamp("op_tail_ms", tail_s * 1e3);
    out.metric("setup_s", median(build_s), "s");
    out.metric("color_s", median(pass_s), "s");
    out.metric("rounds", static_cast<double>(rounds), "count");
    out.metric("ops_per_s", static_cast<double>(pass_s.size()) / busy, "1/s");
    out.metric("op_p50_ms", percentile_sorted(sorted, 500'000) * 1e3, "ms");
    // p99 only when ten samples lie beyond it; with a handful of passes that
    // falls back to the median (README, end-to-end metrics).
    out.metric("op_p99_ms", tail_sorted(sorted, 990'000).second * 1e3, "ms");
    return out;
  }

  // Traced run: each algorithm untraced, then under its span with the phase
  // timers on, back to back, so a slow spell of the host hits both alike.
  // ag runs traced three times, each followed by the stage-by-stage replay
  // of its pipeline; coloring.ag_s and the stage times are medians.
  constexpr int kAgReps = 3;
  PipelineOptions traced_opts = opts;
  traced_opts.run().collect_phase_times = true;
  const std::size_t delta = g.max_degree();
  const agc::runtime::IterativeOptions& iter = traced_opts.iter;
  std::vector<PipelineReport> base, traced;
  std::vector<std::vector<Color>> reference;
  std::vector<double> untraced_s, traced_s, stage_s[3];
  bool staged_ok = true;
  for (std::size_t i = 0; i < std::size(kAlgos); ++i) {
    const AlgoSpec& spec = *agc::coloring::find_algo(kAlgos[i].name);
    const Stopwatch w;
    base.push_back(spec.run(g, opts));
    untraced_s.push_back(w.seconds());
    check(out, g, spec, opts, base.back(), nullptr);
    reference.push_back(base.back().colors);
    std::vector<double> reps;
    for (int rep = 0; rep < (i == 0 ? kAgReps : 1); ++rep) {
      PipelineReport r;
      {
        const auto sp = tr.span(kAlgos[i].span);
        r = spec.run(g, traced_opts);
      }
      reps.push_back(tr.last_s(kAlgos[i].span));
      check(out, g, spec, traced_opts, r, &reference.back());
      if (rep == 0) {
        {
          const auto sp = tr.span("graph.is_proper_coloring");
          out.require(agc::graph::is_proper_coloring(g, r.colors),
                      "engine-regular: benchmark verification found an improper coloring");
        }
        traced.push_back(std::move(r));
      }
      if (i != 0) continue;

      // The AG pipeline, one stage per call, as color_delta_plus_one runs it.
      agc::runtime::IterativeResult lin, core, fin;
      {
        const auto sp = tr.span("coloring.linial_color");
        lin = agc::coloring::linial_color(g, agc::coloring::identity_coloring(g.n()),
                                          std::max<std::uint64_t>(g.n(), 1), delta, iter);
      }
      {
        const auto sp = tr.span("coloring.additive_group_color");
        core = agc::coloring::additive_group_color(g, lin.colors, delta, iter);
      }
      {
        const auto sp = tr.span("coloring.reduce_colors");
        fin = agc::coloring::reduce_colors(g, core.colors, delta + 1, iter);
      }
      stage_s[0].push_back(tr.last_s("coloring.linial_color"));
      stage_s[1].push_back(tr.last_s("coloring.additive_group_color"));
      stage_s[2].push_back(tr.last_s("coloring.reduce_colors"));
      const PipelineReport& ag = base.back();
      staged_ok = staged_ok && fin.colors == ag.colors && lin.rounds == ag.rounds_linial &&
                  core.rounds == ag.rounds_core && fin.rounds == ag.rounds_finish;
    }
    traced_s.push_back(median(reps));
  }
  out.stamp("engine_stage_replay_identical", staged_ok ? 1.0 : 0.0);
  out.require(staged_ok,
              "engine-regular: stage-by-stage AG replay differs from the registry's colors or rounds");

  PipelineOptions single = opts;
  single.run().executor = agc::exec::make_executor(1);
  {
    const auto sp = tr.span("coloring.find_algo(ag)->run:1thread");
    const PipelineReport r = agc::coloring::find_algo("ag")->run(g, single);
    check(out, g, *agc::coloring::find_algo("ag"), single, r, &reference[0]);
  }

  agc::obs::PhaseStats phases;
  std::uint64_t messages = 0, bits = 0;
  for (const auto& r : traced) {
    phases.merge(r.phases);
    messages += r.metrics.messages;
    bits += r.metrics.total_bits;
  }
  auto phase_s = [&](Phase p) { return static_cast<double>(phases.phase_ns(p)) * 1e-9; };

  out.metric("graph.build_s", median(build_s), "s");
  out.metric("graph.build_edges_per_s", static_cast<double>(g.m()) / median(build_s), "1/s");
  out.metric("graph.verify_s", tr.total_s("graph.is_proper_coloring"), "s");
  for (std::size_t i = 0; i < std::size(kAlgos); ++i) {
    const std::string key = std::string("coloring.") + kAlgos[i].name;
    out.metric(key + "_s", traced_s[i], "s");
    out.metric(key + "_rounds", static_cast<double>(traced[i].rounds), "count");
  }
  const double ag_stage_s[3] = {median(stage_s[0]), median(stage_s[1]), median(stage_s[2])};
  out.metric("coloring.ag.linial_s", ag_stage_s[0], "s");
  out.metric("coloring.ag.core_s", ag_stage_s[1], "s");
  out.metric("coloring.ag.finish_s", ag_stage_s[2], "s");
  out.metric("exec.speedup", tr.total_s("coloring.find_algo(ag)->run:1thread") / untraced_s[0],
             "x");
  out.metric("exec.barrier_s", phase_s(Phase::Barrier), "s");
  out.metric("runtime.send_s", phase_s(Phase::Send), "s");
  out.metric("runtime.deliver_s", phase_s(Phase::Deliver), "s");
  out.metric("runtime.receive_s", phase_s(Phase::Receive), "s");
  out.metric("runtime.check_s", phase_s(Phase::Check), "s");
  const double work_ns = static_cast<double>(phases.phase_ns(Phase::Send) +
                                             phases.phase_ns(Phase::Deliver) +
                                             phases.phase_ns(Phase::Receive));
  out.metric("runtime.ns_per_message",
             messages == 0 ? 0.0 : work_ns / static_cast<double>(messages), "ns");
  out.metric("runtime.messages", static_cast<double>(messages), "count");
  out.metric("runtime.total_bits", static_cast<double>(bits), "count");
  double untraced_total = 0, traced_total = 0;
  for (std::size_t i = 0; i < std::size(kAlgos); ++i) {
    untraced_total += untraced_s[i];
    traced_total += traced_s[i];
  }
  out.metric("trace.untraced_color_s", untraced_total, "s");
  out.metric("trace.color_s", traced_total, "s");
  out.metric("trace.overhead_s", traced_total - untraced_total, "s");
  out.metric("trace.stage_sum_frac", (ag_stage_s[0] + ag_stage_s[1] + ag_stage_s[2]) / traced_s[0],
             "ratio");
  return out;
}

}  // namespace perfbench
