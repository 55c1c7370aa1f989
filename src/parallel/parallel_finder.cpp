#include "parallel/parallel_finder.hpp"

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "align/bottom_row_store.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace repro::parallel {
namespace {

/// The workers' shared lock around the search.
class SharedRun {
 public:
  explicit SharedRun(core::Search& search) : search_(search) {}

  void work(core::Sweeper& sweeper, double& idle) {
    try {
      loop(sweeper, idle);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    cv_.notify_all();  // finished or failed: the others re-check
  }

  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void loop(core::Sweeper& sweeper, double& idle) {
    util::WallTimer wait_timer;
    int last = -1;  // the group this worker took last
    std::unique_lock lock(mutex_);
    while (!error_ && !search_.done()) {
      if (const auto a = search_.begin_accept()) {
        lock.unlock();
        core::TopAlignment top = sweeper.trace(search_, *a);
        lock.lock();
        search_.finish_accept(*a, std::move(top));
      } else if (const auto o = search_.begin_sweep(last)) {
        last = o->gi;
        // Sync under the lock, before the sweep and again before its
        // checkpoints are committed: the first worker to replay an
        // acceptance applies it to the shared cache.
        search_.sync(sweeper);
        lock.unlock();
        const auto scores = sweeper.sweep(o->r0, o->count, o->version);
        lock.lock();
        search_.sync(sweeper);
        sweeper.commit();
        search_.finish_sweep(*o, scores);
      } else if (!search_.done()) {  // begin_accept may have exhausted it
        wait_timer.reset();
        cv_.wait(lock);
        idle += wait_timer.seconds();
        continue;
      }
      cv_.notify_all();
    }
  }

  core::Search& search_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::exception_ptr error_;
};

}  // namespace

std::vector<double> run_workers(core::Search& search,
                                std::span<core::Sweeper* const> sweepers) {
  SharedRun run(search);
  std::vector<double> idle(sweepers.size(), 0.0);
  if (sweepers.size() == 1) {
    run.work(*sweepers[0], idle[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(sweepers.size());
    for (std::size_t t = 0; t < sweepers.size(); ++t)
      threads.emplace_back([&run, &idle, sweepers, t] {
        run.work(*sweepers[t], idle[t]);
      });
    for (auto& th : threads) th.join();
  }
  run.rethrow();
  return idle;
}

core::FinderResult find_top_alignments_parallel(const seq::Sequence& s,
                                                const seq::Scoring& scoring,
                                                const ParallelOptions& options,
                                                const EngineFactory& factory) {
  REPRO_CHECK(options.threads >= 1);
  std::vector<std::unique_ptr<align::Engine>> engines;
  engines.reserve(static_cast<std::size_t>(options.threads));
  for (int t = 0; t < options.threads; ++t) {
    engines.push_back(factory());
    REPRO_CHECK_MSG(engines.back() != nullptr, "engine factory returned null");
    REPRO_CHECK_MSG(engines.back()->lanes() == engines.front()->lanes(),
                    "all worker engines must have the same lane count");
  }

  core::Search search(s, scoring, options.finder, engines.front()->lanes(),
                      engines.front()->bands(s.length()));
  // One shared archive: first alignments write disjoint rows.
  std::optional<align::BottomRowStore> archive;
  if (options.finder.memory == core::MemoryMode::kArchiveRows)
    archive.emplace(s.length());
  // One checkpoint cache for the whole budget: any worker resumes from any
  // worker's rows.
  align::CheckpointCache cache(options.finder.checkpoint_mem);
  std::vector<core::Sweeper> sweepers;
  sweepers.reserve(engines.size());
  for (const auto& e : engines)
    sweepers.emplace_back(search, *e, &cache,
                          core::RowSource{archive ? &*archive : nullptr, {}});
  std::vector<core::Sweeper*> workers;
  for (auto& sw : sweepers) workers.push_back(&sw);

  const std::vector<double> idle = run_workers(search, workers);
  return search.finish(workers,
                       std::accumulate(idle.begin(), idle.end(), 0.0));
}

}  // namespace repro::parallel
