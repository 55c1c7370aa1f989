#include "cluster/virtual_cluster.hpp"

#include <queue>
#include <set>

#include "core/search.hpp"
#include "util/check.hpp"

namespace repro::cluster {
namespace {

struct Completion {
  double time = 0.0;
  core::SweepOrder order;
  std::vector<align::Score> scores;
  int worker = 0;

  bool operator>(const Completion& o) const { return time > o.time; }
};

class Simulation {
 public:
  Simulation(AlignmentOracle& oracle, const ClusterModel& model,
             const core::FinderOptions& finder)
      : oracle_(oracle),
        model_(model),
        search_(oracle.sequence(), oracle.scoring(), finder, oracle.lanes(),
                oracle.bands()),
        m_(oracle.sequence().length()),
        lanes_(oracle.lanes()),
        workers_(model.processors <= 1 ? 1 : model.processors - 1) {
    REPRO_CHECK(model.processors >= 1);
    oracle_.begin_run();
    for (int w = 0; w < workers_; ++w) idle_.push_back(w);
    last_.assign(static_cast<std::size_t>(workers_), -1);
  }

  SimResult run() {
    while (!search_.done()) {
      if (try_accept()) continue;
      if (search_.done()) break;
      if (try_assign()) continue;
      if (running_.empty()) break;  // nothing runs, nothing accepted: done
      process_completion();
    }
    result_.makespan_sec =
        result_.accept_times.empty() ? now_ : result_.accept_times.back();
    result_.tops_found = static_cast<int>(result_.accept_times.size());
    if (result_.makespan_sec > 0.0)
      result_.worker_busy_fraction =
          busy_time_ / (static_cast<double>(workers_) * result_.makespan_sec);
    return result_;
  }

 private:
  int version() const { return search_.version(); }

  double worker_rate() const {
    const bool dual =
        model_.cpus_per_node >= 2 && model_.processors > model_.cpus_per_node;
    return model_.worker_cells_per_sec *
           (dual ? model_.second_cpu_efficiency : 1.0);
  }

  bool try_accept() {
    const auto a = search_.begin_accept();
    if (!a) return false;
    search_.finish_accept(*a, oracle_.accept(search_, *a));
    // The sequential master-side traceback: a full scalar matrix of r x (m-r)
    // cells. It occupies the master (and, at P = 1, the only CPU).
    const double start = std::max(now_, master_free_);
    const double cost = static_cast<double>(a->r) *
                        static_cast<double>(m_ - a->r) /
                        model_.traceback_cells_per_sec;
    master_free_ = start + cost;
    result_.accept_times.push_back(master_free_);
    return true;
  }

  bool try_assign() {
    if (idle_.empty()) return false;
    // Each worker asks with its own last group, as on the cluster's master.
    const int w = idle_.back();
    const auto o = search_.begin_sweep(last_[static_cast<std::size_t>(w)]);
    if (!o) return false;
    idle_.pop_back();
    last_[static_cast<std::size_t>(w)] = o->gi;

    Completion c;
    c.order = *o;
    // Real scores, computed eagerly at assignment time (the triangle is at
    // exactly this version now).
    c.scores = oracle_.member_scores(o->gi, o->version);
    c.worker = w;
    ++result_.assignments;

    const bool distributed = model_.processors > 1;
    const double start = std::max(now_, master_free_);
    double duration = static_cast<double>(o->r0 + o->count - 1) *
                      static_cast<double>(m_ - o->r0) *
                      static_cast<double>(lanes_) / worker_rate();
    if (distributed) {
      double comm = 2.0 * model_.latency_sec;  // assign + result messages
      result_.comm_messages_modelled += 2;
      // Row-replica fetches for shadow checks (cached per SMP node); a
      // first alignment instead uploads its bottom rows with the result.
      const int node = (w + 1) / std::max(1, model_.cpus_per_node);
      std::uint64_t bytes = 0;
      for (int k = 0; k < o->count; ++k) {
        const int r = o->r0 + k;
        if (version() == 0) {
          bytes += static_cast<std::uint64_t>(m_ - r) * 2;  // upload
          node_cache_.insert({node, r});
        } else if (!node_cache_.contains({node, r})) {
          bytes += static_cast<std::uint64_t>(m_ - r) * 2;  // fetch
          comm += model_.latency_sec;
          result_.comm_messages_modelled += 2;  // request + reply
          node_cache_.insert({node, r});
        }
      }
      comm += static_cast<double>(bytes) / model_.bandwidth_bytes_per_sec;
      duration += comm;
      result_.comm_seconds_modelled += comm;
      result_.row_replica_bytes += bytes;
    }

    c.time = start + duration;
    running_.push(std::move(c));
    busy_time_ += duration;
    return true;
  }

  void process_completion() {
    const Completion c = running_.top();
    running_.pop();
    now_ = std::max(now_, c.time);
    search_.finish_sweep(c.order, c.scores);
    idle_.push_back(c.worker);
  }

  AlignmentOracle& oracle_;
  const ClusterModel& model_;
  core::Search search_;
  int m_;
  int lanes_;
  int workers_;

  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      running_;
  std::set<std::pair<int, int>> node_cache_;
  std::vector<int> idle_;
  std::vector<int> last_;  ///< per worker, the group it took last

  double now_ = 0.0;
  double master_free_ = 0.0;
  double busy_time_ = 0.0;
  SimResult result_;
};

}  // namespace

SimResult simulate_cluster(AlignmentOracle& oracle, const ClusterModel& model,
                           const core::FinderOptions& finder) {
  Simulation sim(oracle, model, finder);
  return sim.run();
}

}  // namespace repro::cluster
