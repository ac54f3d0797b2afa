#include "agc/scale/flat.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "agc/coloring/palette.hpp"
#include "agc/coloring/stage_plan.hpp"
#include "agc/exec/executor.hpp"
#include "agc/exec/thread_pool.hpp"
#include "agc/scale/packed.hpp"

namespace agc::scale {

using graph::Color;
using graph::Vertex;

FlatResult run_flat(graph::GraphView g, std::vector<Color> initial,
                    const runtime::IterativeRule& rule,
                    std::uint64_t palette_bound, std::size_t max_rounds,
                    const FlatOptions& opts) {
  const std::size_t n = g.n();
  FlatResult res;

  std::size_t threads = opts.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t shards = std::min(threads, std::max<std::size_t>(n, 1));

  // Both buffers hold the current coloring at the start of every round; a
  // round writes next[v] only for vertices that change, and the apply phase
  // copies exactly those entries back.
  const std::uint32_t width =
      runtime::width_of(palette_bound == 0 ? 0 : palette_bound - 1);
  PackedColors cur(n, width);
  for (std::size_t v = 0; v < n; ++v) cur.set(v, initial[v]);
  PackedColors next = cur;

  // The frontier, one bit per vertex: live = not final; changed[r & 1] =
  // changed color in round r.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> live(words, 0);
  std::vector<std::uint64_t> changed[2] = {std::vector<std::uint64_t>(words, 0),
                                           std::vector<std::uint64_t>(words, 0)};
  for (std::size_t v = 0; v < n; ++v) {
    if (!rule.is_final(initial[v])) live[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  res.state_bytes = cur.memory_bytes() + next.memory_bytes() +
                    3 * words * sizeof(std::uint64_t);

  // Shard s owns bitmap words [first_word[s], first_word[s+1]); shard cuts
  // are multiples of 64 vertices (or n) — 64 entries span whole words at
  // every packed width — so shards never write the same word.
  const auto bounds = exec::degree_weighted_bounds(g, shards, 64);
  std::vector<std::size_t> first_word(shards + 1);
  for (std::size_t s = 0; s <= shards; ++s) first_word[s] = (bounds[s] + 63) / 64;

  std::vector<std::vector<std::uint64_t>> scratch(shards);
  for (auto& s : scratch) s.reserve(g.max_degree());
  // Per-shard "some vertex still live" flags; written once per shard per
  // round, read after the pool barrier.
  std::vector<std::uint8_t> shard_live(shards, 0);
  std::size_t round = 0;  // round index within this call

  // Compute phase: step every live vertex whose closed neighborhood changed
  // last round (every live vertex in round 0).  Reads cur and
  // changed[prev] anywhere; writes next, live and changed[cur] in its own
  // words only.
  const std::function<void(std::size_t)> compute = [&](std::size_t s) {
    const std::vector<std::uint64_t>& prev = changed[(round & 1) ^ 1];
    std::vector<std::uint64_t>& now = changed[round & 1];
    const auto was_changed = [&prev](std::size_t u) {
      return (prev[u >> 6] >> (u & 63) & 1) != 0;
    };
    auto& nbrs = scratch[s];
    std::uint64_t any_live = 0;
    for (std::size_t w = first_word[s]; w < first_word[s + 1]; ++w) {
      std::uint64_t lw = live[w];
      std::uint64_t ch = 0;
      for (std::uint64_t rest = lw; rest != 0; rest &= rest - 1) {
        const std::uint64_t bit = rest & (~rest + 1);
        const auto v = static_cast<Vertex>(w * 64 + std::countr_zero(rest));
        const auto row = g.neighbors(v);
        // A pure rule returns last round's answer when neither v nor any
        // neighbor changed, and last round's answer was cur[v].
        if (round != 0 && !was_changed(v) &&
            std::none_of(row.begin(), row.end(), was_changed)) {
          continue;
        }
        nbrs.clear();
        for (const Vertex u : row) nbrs.push_back(cur.get(u));
        // The engine delivers neighbor colors as a sorted, sender-anonymous
        // multiset (InboxRef::multiset); reproduce it exactly.
        std::sort(nbrs.begin(), nbrs.end());
        const Color own = cur.get(v);
        const Color c = rule.step(own, nbrs);
        if (c != own) {
          next.set(v, c);
          ch |= bit;
        }
        if (rule.is_final(c)) lw &= ~bit;
      }
      live[w] = lw;
      now[w] = ch;
      any_live |= lw;
    }
    shard_live[s] = any_live != 0 ? 1 : 0;
  };

  // Apply phase: copy this round's changes into cur, own words only.
  const std::function<void(std::size_t)> apply = [&](std::size_t s) {
    const std::vector<std::uint64_t>& now = changed[round & 1];
    for (std::size_t w = first_word[s]; w < first_word[s + 1]; ++w) {
      for (std::uint64_t rest = now[w]; rest != 0; rest &= rest - 1) {
        const std::size_t v = w * 64 + std::countr_zero(rest);
        cur.set(v, next.get(v));
      }
    }
  };

  std::unique_ptr<exec::ThreadPool> pool;
  if (shards > 1) pool = std::make_unique<exec::ThreadPool>(shards);
  auto run_phase = [&](const std::function<void(std::size_t)>& phase) {
    if (pool) {
      pool->run(shards, phase);
    } else {
      phase(0);
    }
  };
  bool done = std::all_of(live.begin(), live.end(),
                          [](std::uint64_t w) { return w == 0; });
  while (!done && round < max_rounds) {
    run_phase(compute);
    run_phase(apply);
    ++round;
    done = std::all_of(shard_live.begin(), shard_live.end(),
                       [](std::uint8_t f) { return f == 0; });
  }
  res.rounds = round;
  res.converged = done;

  res.colors.resize(n);
  for (std::size_t v = 0; v < n; ++v) res.colors[v] = cur.get(v);
  return res;
}

FlatResult color_delta_plus_one_flat(graph::GraphView g,
                                     const FlatOptions& opts) {
  FlatResult total;
  total.converged = true;
  std::size_t* const split[coloring::kDeltaPlusOneStages] = {
      &total.rounds_linial, &total.rounds_core, &total.rounds_finish};
  std::vector<Color> colors = coloring::identity_coloring(g.n());
  for (std::size_t i = 0; i < coloring::kDeltaPlusOneStages; ++i) {
    coloring::StagePlan plan =
        coloring::plan_delta_plus_one_stage(i, g, std::move(colors));
    if (plan.rule == nullptr) {
      colors = std::move(plan.initial);
      continue;
    }
    FlatResult r = run_flat(g, std::move(plan.initial), *plan.rule,
                            plan.palette_bound, plan.max_rounds, opts);
    colors = std::move(r.colors);
    *split[i] = r.rounds;
    total.rounds += r.rounds;
    total.converged = total.converged && r.converged;
    total.state_bytes = std::max(total.state_bytes, r.state_bytes);
  }
  total.colors = std::move(colors);
  total.palette = graph::palette_size(total.colors);
  total.proper = graph::is_proper_coloring(g, total.colors);
  return total;
}

}  // namespace agc::scale
