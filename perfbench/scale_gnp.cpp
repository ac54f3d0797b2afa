// Workload scale-gnp: G(n,p) at n = 10^6, average degree 16, streamed into
// the frozen CSR and colored by the flat runner's (Delta+1) pipeline.
//
// Untraced: repeated scale::color_delta_plus_one_flat calls for the window.
// Traced: three repetitions of an untraced call, a traced call (tracing
// overhead), the benchmark's own properness check and a stage-by-stage replay
// through scale::run_flat; then a round-at-a-time replay (max_rounds = 1)
// that counts changed vertices, and a 1-thread call for the exec speedup.
// Both replays must reproduce the one-call colors and round counts exactly.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "agc/coloring/ag.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/palette.hpp"
#include "agc/coloring/reduction.hpp"
#include "agc/graph/checks.hpp"
#include "agc/graph/frozen.hpp"
#include "agc/graph/spec.hpp"
#include "agc/scale/flat.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using agc::graph::Color;
using agc::graph::GraphView;
using agc::scale::FlatOptions;
using agc::scale::FlatResult;

/// Names of the flat pipeline's three stages and of their spans.
struct StageNames {
  const char* name;
  const char* span;        ///< span of the stage-by-stage replay
  const char* round_span;  ///< parent span of the round-at-a-time replay
};

constexpr StageNames kStages[3] = {
    {"linial", "scale.run_flat:linial", "scale.round_replay:linial"},
    {"ag", "scale.run_flat:ag", "scale.round_replay:ag"},
    {"finish", "scale.run_flat:finish", "scale.round_replay:finish"},
};

/// One stage of the flat pipeline, parameterized exactly as
/// scale::color_delta_plus_one_flat does it.
struct Stage {
  std::unique_ptr<agc::runtime::IterativeRule> rule;
  std::uint64_t palette_bound = 0;
  std::size_t max_rounds = 0;
};

/// Plan stage `index` (0 Linial, 1 AG, 2 finish) from the colors the previous
/// stage produced.  Linial lifts the identity coloring into its top interval
/// in place; it has no rule when the schedule is empty.
Stage plan_stage(std::size_t index, GraphView g, std::vector<Color>& colors) {
  const std::size_t delta = g.max_degree();
  if (index == 0) {
    const agc::coloring::LinialSchedule sched(std::max<std::uint64_t>(g.n(), 1), delta);
    if (sched.stages() == 0) return {};
    const std::uint64_t top = sched.offset(sched.stages());
    for (Color& c : colors) c += top;
    return {std::make_unique<agc::coloring::LinialRule>(sched), sched.total_span(),
            sched.stages() + 2};
  }
  const Color k = agc::graph::max_color(colors) + 1;
  if (index == 1) {
    auto rule = std::make_unique<agc::coloring::AgRule>(agc::coloring::ag_modulus(delta, k));
    const std::uint64_t q = rule->q();
    return {std::move(rule), std::max<std::uint64_t>(q * q, k),
            static_cast<std::size_t>(q + 2)};
  }
  const std::uint64_t target = delta + 1;
  const std::uint64_t bound = std::max<std::uint64_t>(k, target);
  return {std::make_unique<agc::coloring::GreedyReduceRule>(target, bound), bound,
          k > target ? static_cast<std::size_t>(k - target) + 1 : 1};
}

struct StageResult {
  std::size_t rounds = 0;
  std::uint64_t changed = 0;  ///< vertices that changed color, summed over rounds
  std::uint64_t state_bytes = 0;
};

/// Replay the pipeline stage by stage.  With `per_round`, every stage runs
/// as a sequence of max_rounds = 1 calls and changed vertices are counted.
std::vector<Color> replay(GraphView g, const FlatOptions& fo, bool per_round,
                          Tracer& tr, std::vector<StageResult>& stages) {
  std::vector<Color> colors = agc::coloring::identity_coloring(g.n());
  stages.assign(3, {});
  for (std::size_t i = 0; i < 3; ++i) {
    const Stage st = plan_stage(i, g, colors);
    if (st.rule == nullptr) continue;
    StageResult& sr = stages[i];
    if (!per_round) {
      const auto sp = tr.span(kStages[i].span);
      FlatResult r = agc::scale::run_flat(g, std::move(colors), *st.rule,
                                          st.palette_bound, st.max_rounds, fo);
      colors = std::move(r.colors);
      sr.rounds = r.rounds;
      sr.state_bytes = r.state_bytes;
      continue;
    }
    const auto sp = tr.span(kStages[i].round_span);
    while (sr.rounds < st.max_rounds) {
      FlatResult r = [&] {
        const auto rs = tr.span("scale.run_flat:one_round");
        return agc::scale::run_flat(g, colors, *st.rule, st.palette_bound, 1, fo);
      }();
      sr.state_bytes = r.state_bytes;
      if (r.rounds == 0) break;  // already at the fixed point
      for (std::size_t v = 0; v < colors.size(); ++v) sr.changed += colors[v] != r.colors[v];
      colors = std::move(r.colors);
      ++sr.rounds;
      if (r.converged) break;
    }
  }
  return colors;
}

/// Correctness gate of one coloring call: proper, at most Delta+1 colors,
/// converged, and identical to the first call's colors.
void check(Outcome& out, GraphView g, const FlatResult& r,
           const std::vector<Color>& reference, const char* what) {
  const std::size_t delta = g.max_degree();
  const bool ok = r.converged && r.proper && r.colors.size() == g.n() &&
                  agc::graph::is_proper_coloring(g, r.colors) &&
                  agc::graph::max_color(r.colors) <= delta && r.palette <= delta + 1 &&
                  r.colors == reference;
  out.op(ok, std::string("scale-gnp: ") + what +
                 " is not a converged proper (Delta+1)-coloring identical to the first call");
}

std::string gnp_spec(std::uint64_t n, std::uint64_t seed) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "gnp:n=%" PRIu64 ",p=%.17g,seed=%" PRIu64, n,
                16.0 / static_cast<double>(n), seed);
  return buf;
}

}  // namespace

Outcome run_scale_gnp(const Args& a, Tracer& tr) {
  Outcome out;
  const std::uint64_t n = a.tiny ? 20000 : 1'000'000;
  const std::size_t threads = std::min<std::size_t>(4, nproc());
  const auto spec = agc::graph::GraphSpec::parse(gnp_spec(n, a.graph_seed));

  // Set-up: build the CSR several times, keep the last.
  std::optional<agc::graph::FrozenGraph> f;
  std::vector<double> build_s;
  for (int i = 0; i < 9; ++i) {
    f.reset();
    const auto sp = tr.span("graph.GraphSpec::build_frozen");
    const Stopwatch w;
    f.emplace(spec.build_frozen());
    build_s.push_back(w.seconds());
  }
  const GraphView g(*f);
  const double n_d = static_cast<double>(g.n());
  out.stamp("threads", static_cast<double>(threads));
  out.stamp("graph", spec.to_string());
  out.stamp("n", n_d);
  out.stamp("m", static_cast<double>(g.m()));
  out.stamp("delta", static_cast<double>(g.max_degree()));
  const double csr = static_cast<double>(f->memory_bytes());
  const double llc = static_cast<double>(llc_bytes());
  out.stamp("csr_bytes", csr);
  out.stamp("llc_bytes", llc);
  out.stamp("csr_over_llc", llc == 0 ? 0.0 : csr / llc);

  const FlatOptions fo{threads};
  if (!tr.enabled()) {
    std::vector<double> op_s;
    std::vector<Color> reference;
    std::size_t rounds = 0;
    const Stopwatch window;
    do {
      const Stopwatch w;
      const FlatResult r = agc::scale::color_delta_plus_one_flat(g, fo);
      op_s.push_back(w.seconds());
      if (reference.empty()) reference = r.colors;
      rounds = r.rounds;
      check(out, g, r, reference, "color_delta_plus_one_flat");
    } while (window.seconds() < a.seconds);

    std::vector<double> sorted = op_s;
    std::sort(sorted.begin(), sorted.end());
    double busy = 0;
    for (const double s : op_s) busy += s;
    const auto [tail_pct, tail_s] = tail_sorted(sorted);
    out.stamp("op_samples", static_cast<double>(op_s.size()));
    out.stamp("op_tail_pct", tail_pct);
    out.stamp("op_tail_ms", tail_s * 1e3);
    out.metric("setup_s", median(build_s), "s");
    out.metric("color_s", median(op_s), "s");
    out.metric("rounds", static_cast<double>(rounds), "count");
    out.metric("ops_per_s", static_cast<double>(op_s.size()) / busy, "1/s");
    out.metric("op_p50_ms", percentile_sorted(sorted, 500'000) * 1e3, "ms");
    // p99 only when ten samples lie beyond it; with a handful of calls that
    // falls back to the median (README, end-to-end metrics).
    out.metric("op_p99_ms", tail_sorted(sorted, 990'000).second * 1e3, "ms");
    return out;
  }

  // Traced run: three repetitions of an untraced call, the same call under
  // its span, the benchmark's own properness check and the stage-by-stage
  // replay, back to back, so a slow spell of the host hits all of them alike.
  // Per-layer times are medians over the repetitions.
  constexpr int kReps = 3;
  FlatResult base;
  std::vector<StageResult> stages;
  std::vector<double> untraced_s, traced_s, verify_s, overhead_s, stage_s[3];
  bool staged_ok = true;
  for (int rep = 0; rep < kReps; ++rep) {
    const Stopwatch w;
    FlatResult u = agc::scale::color_delta_plus_one_flat(g, fo);
    untraced_s.push_back(w.seconds());
    check(out, g, u, rep == 0 ? u.colors : base.colors, "untraced color_delta_plus_one_flat");
    if (rep == 0) base = std::move(u);
    FlatResult t;
    {
      const auto sp = tr.span("scale.color_delta_plus_one_flat");
      t = agc::scale::color_delta_plus_one_flat(g, fo);
    }
    traced_s.push_back(tr.last_s("scale.color_delta_plus_one_flat"));
    check(out, g, t, base.colors, "traced color_delta_plus_one_flat");
    {
      const auto sp = tr.span("graph.is_proper_coloring");
      out.require(agc::graph::is_proper_coloring(g, t.colors),
                  "scale-gnp: benchmark verification found an improper coloring");
    }
    verify_s.push_back(tr.last_s("graph.is_proper_coloring"));

    staged_ok = staged_ok && replay(g, fo, false, tr, stages) == base.colors;
    for (std::size_t i = 0; i < 3; ++i) stage_s[i].push_back(tr.last_s(kStages[i].span));
    overhead_s.push_back(traced_s.back() - untraced_s.back());
  }

  std::vector<StageResult> rounds;
  bool stepped_ok = replay(g, fo, true, tr, rounds) == base.colors;
  const std::size_t one_call[3] = {base.rounds_linial, base.rounds_core, base.rounds_finish};
  std::uint64_t state_bytes = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    staged_ok = staged_ok && stages[i].rounds == one_call[i];
    stepped_ok = stepped_ok && rounds[i].rounds == one_call[i];
    state_bytes = std::max(state_bytes, stages[i].state_bytes);
  }
  out.stamp("flat_stage_replay_identical", staged_ok ? 1.0 : 0.0);
  out.stamp("flat_round_replay_identical", stepped_ok ? 1.0 : 0.0);
  out.require(staged_ok,
              "scale-gnp: stage-by-stage replay differs from the one-call colors or rounds");
  out.require(stepped_ok,
              "scale-gnp: round-at-a-time replay differs from the one-call colors or rounds");
  out.require(state_bytes == base.state_bytes,
              "scale-gnp: stage replay state bytes differ from the one-call run");

  FlatResult single;
  {
    const auto sp = tr.span("scale.color_delta_plus_one_flat:1thread");
    single = agc::scale::color_delta_plus_one_flat(g, FlatOptions{1});
  }
  check(out, g, single, base.colors, "1-thread color_delta_plus_one_flat");

  out.metric("graph.build_s", median(build_s), "s");
  out.metric("graph.build_edges_per_s", static_cast<double>(g.m()) / median(build_s), "1/s");
  out.metric("graph.verify_s", median(verify_s), "s");
  double stage_sum = median(verify_s);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string key = std::string("scale.") + kStages[i].name;
    const double s = median(stage_s[i]);
    const double vr = n_d * static_cast<double>(stages[i].rounds);
    stage_sum += s;
    out.metric(key + "_s", s, "s");
    out.metric(key + "_rounds", static_cast<double>(stages[i].rounds), "count");
    out.metric(key + "_ns_per_vertex_round", vr == 0 ? 0.0 : s * 1e9 / vr, "ns");
  }
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    const double vr = n_d * static_cast<double>(rounds[i].rounds);
    out.metric(std::string("scale.") + kStages[i].name + "_changed_frac",
               vr == 0 ? 0.0 : static_cast<double>(rounds[i].changed) / vr, "ratio");
  }
  out.metric("scale.state_bytes_per_vertex", static_cast<double>(base.state_bytes) / n_d,
             "B/vertex");
  out.metric("exec.speedup",
             tr.last_s("scale.color_delta_plus_one_flat:1thread") / median(untraced_s), "x");
  out.metric("trace.untraced_color_s", median(untraced_s), "s");
  out.metric("trace.color_s", median(traced_s), "s");
  out.metric("trace.overhead_s", median(overhead_s), "s");
  out.metric("trace.stage_sum_frac", stage_sum / median(traced_s), "ratio");
  return out;
}

}  // namespace perfbench
