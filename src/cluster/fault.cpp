#include "cluster/fault.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace repro::cluster {
namespace {

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kDuplicate:
      return "dup";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kKill:
      return "kill";
  }
  return "?";
}

bool is_death(FaultKind kind) {
  return kind == FaultKind::kCrash || kind == FaultKind::kKill;
}

[[noreturn]] void bad_spec(std::string_view token, const std::string& why) {
  std::ostringstream os;
  os << "fault plan: bad token '" << token << "': " << why;
  throw std::runtime_error(os.str());
}

/// Parses "key=value" fields after the kind, e.g. "from=1,to=0,op=3".
FaultEvent parse_event(std::string_view token) {
  const auto colon = token.find(':');
  if (colon == std::string_view::npos)
    bad_spec(token, "expected '<kind>:<fields>'");
  const std::string_view kind_str = token.substr(0, colon);
  FaultEvent ev;
  if (kind_str == "drop") {
    ev.kind = FaultKind::kDrop;
  } else if (kind_str == "delay") {
    ev.kind = FaultKind::kDelay;
  } else if (kind_str == "dup") {
    ev.kind = FaultKind::kDuplicate;
  } else if (kind_str == "crash") {
    ev.kind = FaultKind::kCrash;
  } else if (kind_str == "kill") {
    ev.kind = FaultKind::kKill;
  } else {
    bad_spec(token, "unknown kind (drop|delay|dup|crash|kill)");
  }

  bool saw_from = false;
  bool saw_to = false;
  bool saw_op = false;
  bool saw_ticks = false;
  std::string_view rest = token.substr(colon + 1);
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view field =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const auto eq = field.find('=');
    if (eq == std::string_view::npos) bad_spec(token, "expected key=value");
    const std::string_view key = field.substr(0, eq);
    const std::string value(field.substr(eq + 1));
    std::uint64_t parsed = 0;
    try {
      std::size_t used = 0;
      parsed = std::stoull(value, &used);
      if (used != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      bad_spec(token, "non-numeric value '" + value + "'");
    }
    if (key == "from" || key == "rank") {
      ev.from = static_cast<int>(parsed);
      saw_from = true;
    } else if (key == "to") {
      ev.to = static_cast<int>(parsed);
      saw_to = true;
    } else if (key == "op") {
      ev.op = parsed;
      saw_op = true;
    } else if (key == "ticks") {
      ev.ticks = parsed;
      saw_ticks = true;
    } else {
      bad_spec(token, "unknown key '" + std::string(key) + "'");
    }
  }
  if (!saw_from || !saw_op)
    bad_spec(token, "missing required from/rank or op field");
  if (is_death(ev.kind)) {
    if (saw_to) bad_spec(token, "crash/kill take rank=,op= only");
  } else if (!saw_to) {
    bad_spec(token, "missing to= field");
  }
  if (ev.kind == FaultKind::kDelay && !saw_ticks)
    bad_spec(token, "delay requires ticks=");
  if (ev.kind != FaultKind::kDelay && saw_ticks)
    bad_spec(token, "ticks= only applies to delay");
  if (ev.from < 0 || ev.to < 0) bad_spec(token, "negative rank");
  return ev;
}

}  // namespace

std::vector<int> FaultPlan::crashed_ranks() const {
  std::set<int> ranks;
  for (const FaultEvent& e : events)
    if (is_death(e.kind)) ranks.insert(e.from);
  return {ranks.begin(), ranks.end()};
}

bool FaultPlan::has_delays() const {
  return std::any_of(events.begin(), events.end(), [](const FaultEvent& e) {
    return e.kind == FaultKind::kDelay;
  });
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (i > 0) os << ';';
    os << kind_name(e.kind) << ':';
    if (is_death(e.kind)) {
      os << "rank=" << e.from << ",op=" << e.op;
    } else {
      os << "from=" << e.from << ",to=" << e.to << ",op=" << e.op;
      if (e.kind == FaultKind::kDelay) os << ",ticks=" << e.ticks;
    }
  }
  return os.str();
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::string cleaned;
  cleaned.reserve(spec.size());
  for (char c : spec)
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') cleaned.push_back(c);
  std::string_view rest = cleaned;
  while (!rest.empty()) {
    const auto semi = rest.find(';');
    const std::string_view token =
        semi == std::string_view::npos ? rest : rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (token.empty()) continue;
    plan.events.push_back(parse_event(token));
  }
  return plan;
}

FaultPlan FaultPlan::from_seed(std::uint64_t seed, int ranks) {
  REPRO_CHECK(ranks >= 2);
  util::Rng rng(seed ^ 0xfa017c0de5eedULL);
  FaultPlan plan;

  // Message faults: for every ordered channel, scatter events over the
  // first ~48 sends. Events past the channel's actual traffic never fire —
  // the probabilities below are per *scheduled op*, so short runs see
  // proportionally fewer injections.
  for (int from = 0; from < ranks; ++from) {
    for (int to = 0; to < ranks; ++to) {
      if (from == to) continue;
      for (std::uint64_t op = 0; op < 48; ++op) {
        const double roll = rng.uniform();
        if (roll < 0.04) {
          plan.events.push_back({FaultKind::kDrop, from, to, op, 0});
        } else if (roll < 0.08) {
          plan.events.push_back({FaultKind::kDuplicate, from, to, op, 0});
        } else if (roll < 0.15) {
          plan.events.push_back(
              {FaultKind::kDelay, from, to, op, 1 + rng.below(96)});
        }
      }
    }
  }

  // Rank crashes: at most workers-1 victims so at least one worker survives
  // (and never the master — the recovery model keeps rank 0 alive, matching
  // the paper's "sacrificed" coordinator).
  const int workers = ranks - 1;
  if (workers >= 2 && rng.chance(0.5)) {
    const int victims =
        1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(workers - 1)));
    std::vector<int> pool;
    for (int w = 1; w < ranks; ++w) pool.push_back(w);
    for (int v = 0; v < victims; ++v) {
      const auto pick = rng.below(pool.size());
      const int victim = pool[pick];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      plan.events.push_back(
          {FaultKind::kCrash, victim, 0, 1 + rng.below(160), 0});
    }
  }
  return plan;
}

}  // namespace repro::cluster
