#include "agc/exec/executor.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

namespace agc::exec {

ParallelExecutor::ParallelExecutor(std::size_t threads) : pool_(threads) {
  // Built once; each task reads the round-scoped ctx_ through `this`, so
  // round() never constructs a std::function (which would heap-allocate).
  send_task_ = [this](std::size_t s) {
    ctx_->send(bounds_[s], bounds_[s + 1], s);
  };
  deliver_task_ = [this](std::size_t s) {
    ctx_->deliver(bounds_[s], bounds_[s + 1], per_shard_[s], s);
  };
  receive_task_ = [this](std::size_t s) {
    ctx_->receive(bounds_[s], bounds_[s + 1], s);
  };
}

void ParallelExecutor::refresh_bounds(const runtime::RoundContext& ctx) {
  const graph::GraphView g = ctx.graph();
  const std::size_t shards = pool_.size();
  if (bounds_built_ && bounds_n_ == g.n() &&
      bounds_version_ == g.topology_version() &&
      bounds_.size() == shards + 1) {
    return;  // steady state: O(1) per round, like the mailbox arena
  }
  bounds_ = degree_weighted_bounds(g, shards, 1);
  bounds_n_ = g.n();
  bounds_version_ = g.topology_version();
  bounds_built_ = true;
}

void ParallelExecutor::round(runtime::RoundContext& ctx,
                             runtime::Metrics& total) {
  const std::size_t shards = pool_.size();
  ctx.prepare(shards);
  refresh_bounds(ctx);
  ctx_ = &ctx;
  per_shard_.assign(shards, runtime::Metrics{});  // capacity reused

  obs::PhaseProfile* profile = ctx.profile();
  if (profile == nullptr) {
    pool_.run(shards, send_task_);
    pool_.run(shards, deliver_task_);
    runtime::RoundContext::reduce(per_shard_, total);
    pool_.run(shards, receive_task_);
    ctx_ = nullptr;
    return;
  }

  // Profiled path: barrier idle = the fork/join wall clock times the shard
  // count, minus the time shards spent inside the phase bodies.  The slowest
  // shard dominates the wall, so this is exactly the sum of everyone else's
  // wait (plus fork/join overhead), attributed to the driving thread's extra
  // accumulator — shard accumulators stay owned by their shards.
  std::uint64_t busy_before = 0;
  std::uint64_t idle_ns = 0;
  const auto fork_join = [&](const std::function<void(std::size_t)>& task,
                             obs::Phase phase) {
    busy_before = profile->busy_ns(phase);
    const std::uint64_t t0 = obs::monotonic_ns();
    pool_.run(shards, task);
    const std::uint64_t wall = obs::monotonic_ns() - t0;
    const std::uint64_t busy = profile->busy_ns(phase) - busy_before;
    const std::uint64_t occupied = wall * shards;
    idle_ns += occupied > busy ? occupied - busy : 0;
  };
  fork_join(send_task_, obs::Phase::Send);
  fork_join(deliver_task_, obs::Phase::Deliver);
  runtime::RoundContext::reduce(per_shard_, total);
  fork_join(receive_task_, obs::Phase::Receive);
  profile->extra()->add(obs::Phase::Barrier, idle_ns);
  ctx_ = nullptr;
}

std::vector<graph::Vertex> degree_weighted_bounds(graph::GraphView g,
                                                  std::size_t shards,
                                                  std::size_t align) {
  const std::size_t n = g.n();
  std::vector<graph::Vertex> bounds(shards + 1, static_cast<graph::Vertex>(n));
  bounds[0] = 0;
  const std::uint64_t total = 2 * static_cast<std::uint64_t>(g.m()) + n;
  std::uint64_t acc = 0;
  std::size_t s = 1;
  for (graph::Vertex v = 0; v < n && s < shards; ++v) {
    acc += g.degree(v) + 1;
    // Cut after v once the running weight crosses the s-th quantile.
    while (s < shards && acc * shards >= total * s) {
      const std::uint64_t cut = (std::uint64_t{v} + align) / align * align;
      bounds[s++] = static_cast<graph::Vertex>(std::min<std::uint64_t>(cut, n));
    }
  }
  return bounds;
}

std::shared_ptr<runtime::RoundExecutor> make_executor(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads == 1) return std::make_shared<runtime::SequentialExecutor>();
  return std::make_shared<ParallelExecutor>(threads);
}

std::size_t default_threads() {
  const char* env = std::getenv("AGC_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  const auto v = std::strtoull(env, nullptr, 10);
  if (v == 0) return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return static_cast<std::size_t>(v);
}

}  // namespace agc::exec
