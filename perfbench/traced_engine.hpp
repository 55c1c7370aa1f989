// Engine wrapper that times every Engine::align call from outside the
// library, and the recorder that hands wrappers to the finders through an
// EngineFactory.
//
// The wrapper forwards lanes(), supports_checkpoints() and
// precision_stats() to the engine it wraps, so the drivers schedule and
// resume exactly as they would with the bare engine. perfbench checks that
// the lane cells of the logged calls, (rows below the resume row) x width x
// lanes summed over the spans, equal the inner engine's cells_computed().
// (The base class reports every call to the global obs registry, so
// registry align.* counters double under the wrapper; perfbench reads no
// registry value.)
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "align/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One Engine::align call: the group, where it resumed, and when it ran.
struct AlignSpan {
  Clock::time_point begin;
  Clock::time_point end;
  int r0 = 0;
  int count = 0;
  int resume_row = 0;  ///< DP rows restored from a checkpoint (0 = none)
  bool first = false;  ///< no override triangle: a first-alignment sweep
};

/// Everything one wrapped engine saw. Written only by the thread that owns
/// the engine; read after the finder call returns, when that thread has
/// been joined and the engine destroyed.
struct EngineLog {
  int track = 0;  ///< creation order within the finder call
  std::vector<AlignSpan> spans;
  std::uint64_t inner_cells = 0;  ///< wrapped engine's cells_computed()
  repro::align::PrecisionStats precision;
};

class TracedEngine final : public repro::align::Engine {
 public:
  TracedEngine(std::unique_ptr<repro::align::Engine> inner,
               std::shared_ptr<EngineLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  TracedEngine(const TracedEngine&) = delete;
  TracedEngine& operator=(const TracedEngine&) = delete;

  ~TracedEngine() override {
    log_->inner_cells = inner_->cells_computed();
    log_->precision = inner_->precision_stats();
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int lanes() const override { return inner_->lanes(); }
  [[nodiscard]] bool supports_checkpoints() const override {
    return inner_->supports_checkpoints();
  }
  [[nodiscard]] repro::align::PrecisionStats precision_stats() const override {
    return inner_->precision_stats();
  }

 protected:
  void do_align(const repro::align::GroupJob& job,
                std::span<const std::span<repro::align::Score>> out) override {
    AlignSpan s;
    s.r0 = job.r0;
    s.count = job.count;
    s.first = job.overrides == nullptr;
    if (job.resume != nullptr && inner_->supports_checkpoints())
      s.resume_row = job.resume->row;
    s.begin = Clock::now();
    inner_->align(job, out);
    s.end = Clock::now();
    log_->spans.push_back(s);
  }

 private:
  std::unique_ptr<repro::align::Engine> inner_;
  std::shared_ptr<EngineLog> log_;
};

/// Hands out wrapped engines and keeps their logs. The finders call the
/// factory from the thread that starts the run, before any worker starts;
/// the mutex keeps that assumption out of the recorder's correctness.
class Recorder {
 public:
  explicit Recorder(repro::align::EngineFactory inner)
      : inner_(std::move(inner)) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// A factory whose engines log into this recorder. The recorder must
  /// outlive every engine the factory makes.
  repro::align::EngineFactory factory() {
    return [this]() -> std::unique_ptr<repro::align::Engine> {
      auto log = std::make_shared<EngineLog>();
      {
        const std::lock_guard<std::mutex> lock(mu_);
        log->track = static_cast<int>(logs_.size());
        logs_.push_back(log);
      }
      return std::make_unique<TracedEngine>(inner_(), std::move(log));
    };
  }

  /// Takes the logs of the engines made since the last call.
  std::vector<std::shared_ptr<EngineLog>> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(logs_, {});
  }

 private:
  repro::align::EngineFactory inner_;
  std::mutex mu_;
  std::vector<std::shared_ptr<EngineLog>> logs_;
};

}  // namespace perfbench
