#include "sim/membership.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace mllibstar {

MembershipTracker::MembershipTracker(const ChurnPlan& plan, size_t num_workers,
                                     size_t num_servers)
    : plan_(plan),
      enabled_(!plan.empty()),
      rng_(kMembershipSeed),
      num_servers_(num_servers) {
  MLLIBSTAR_CHECK(num_workers > 0);
  MLLIBSTAR_CHECK(plan_.heartbeat_interval_sec > 0.0);
  MLLIBSTAR_CHECK(plan_.suspicion_timeout_sec >= 0.0);
  size_t active = plan_.initial_active == 0
                      ? num_workers
                      : std::min(plan_.initial_active, num_workers);
  status_.assign(num_workers, Status::kPending);
  ever_active_.assign(num_workers, false);
  for (size_t w = 0; w < active; ++w) {
    status_[w] = Status::kActive;
    ever_active_[w] = true;
  }
  num_active_ = active;
  join_fired_.assign(plan_.joins.size(), false);
  leave_fired_.assign(plan_.leaves.size(), false);
  rejoin_fired_.assign(plan_.rejoins.size(), false);
  stats_.min_active = active;
  stats_.max_active = active;
  if (enabled_) {
    RedrawNextPoissonLeave(0.0);
    RedrawNextPoissonJoin(0.0);
  }
}

SimTime MembershipTracker::NextTick(SimTime t) const {
  const double hb = plan_.heartbeat_interval_sec;
  return std::floor(t / hb) * hb + hb;
}

SimTime MembershipTracker::DetectionTick(SimTime t) const {
  const double hb = plan_.heartbeat_interval_sec;
  SimTime deadline = t + plan_.suspicion_timeout_sec;
  SimTime tick = std::ceil(deadline / hb) * hb;
  if (tick < deadline) tick += hb;  // guard against ceil rounding down
  return std::max(tick, NextTick(t));
}

void MembershipTracker::RedrawNextPoissonLeave(SimTime from) {
  if (plan_.leave_rate_per_sec <= 0.0) {
    next_poisson_leave_ = std::numeric_limits<double>::infinity();
    return;
  }
  double gap = -std::log(1.0 - rng_.NextDouble()) / plan_.leave_rate_per_sec;
  next_poisson_leave_ = from + gap;
}

void MembershipTracker::RedrawNextPoissonJoin(SimTime from) {
  if (plan_.join_rate_per_sec <= 0.0) {
    next_poisson_join_ = std::numeric_limits<double>::infinity();
    return;
  }
  double gap = -std::log(1.0 - rng_.NextDouble()) / plan_.join_rate_per_sec;
  next_poisson_join_ = from + gap;
}

void MembershipTracker::ApplyEvent(const MembershipEvent& ev) {
  switch (ev.kind) {
    case MembershipEvent::Kind::kLeave:
      status_[ev.node] = Status::kLeft;
      --num_active_;
      ++stats_.leaves;
      ++stats_.suspicions;
      stats_.min_active = std::min<uint64_t>(stats_.min_active, num_active_);
      break;
    case MembershipEvent::Kind::kJoin:
    case MembershipEvent::Kind::kRejoin:
      status_[ev.node] = Status::kActive;
      ever_active_[ev.node] = true;
      ++num_active_;
      if (ev.kind == MembershipEvent::Kind::kRejoin) {
        ++stats_.rejoins;
      } else {
        ++stats_.joins;
      }
      stats_.max_active = std::max<uint64_t>(stats_.max_active, num_active_);
      break;
  }
}

std::vector<MembershipEvent> MembershipTracker::AdvanceTo(SimTime now) {
  std::vector<MembershipEvent> fired;
  if (!enabled_) return fired;

  // Candidate transitions are built fresh each call from the fired
  // flags; detection times are pure functions of the scripted times,
  // so re-deriving them is deterministic. Poisson arrivals interleave
  // by arrival time so the victim/slot draws consume the membership
  // stream in one canonical order no matter how callers slice their
  // AdvanceTo calls.
  struct Pending {
    MembershipEvent ev;
    bool poisson = false;
    // (detection, arrival, kind, node) orders ties deterministically.
    bool Before(const Pending& other) const {
      if (ev.detected_at != other.ev.detected_at)
        return ev.detected_at < other.ev.detected_at;
      if (ev.at != other.ev.at) return ev.at < other.ev.at;
      if (ev.kind != other.ev.kind)
        return static_cast<int>(ev.kind) < static_cast<int>(other.ev.kind);
      return ev.node < other.ev.node;
    }
  };

  // Materializes the single earliest Poisson arrival, drawing the
  // victim/slot (and the next inter-arrival gap) from the membership
  // stream. Called in strict time order, interleaved with event
  // application below, so the state each draw consults is exactly the
  // state at that arrival's time — independent of how coarsely the
  // caller slices its AdvanceTo calls.
  auto materialize_one_arrival = [&]() {
    {
      if (next_poisson_leave_ <= next_poisson_join_) {
        SimTime at = next_poisson_leave_;
        if (num_active_ > plan_.min_active_workers) {
          uint64_t pick = rng_.NextUint64(num_active_);
          size_t victim = status_.size();
          for (size_t w = 0; w < status_.size(); ++w) {
            if (status_[w] != Status::kActive) continue;
            if (pick-- == 0) {
              victim = w;
              break;
            }
          }
          MembershipEvent ev;
          ev.kind = MembershipEvent::Kind::kLeave;
          ev.node = victim;
          ev.at = at;
          ev.suspect_at = NextTick(at);
          ev.detected_at = DetectionTick(at);
          poisson_pending_.push_back(ev);
        }
        RedrawNextPoissonLeave(at);
      } else {
        SimTime at = next_poisson_join_;
        // Inactive slots not already promised to a pending join.
        std::vector<size_t> slots;
        for (size_t w = 0; w < status_.size(); ++w) {
          if (status_[w] == Status::kActive) continue;
          bool promised = false;
          for (const MembershipEvent& p : poisson_pending_) {
            if (p.node == w && p.kind != MembershipEvent::Kind::kLeave) {
              promised = true;
              break;
            }
          }
          if (!promised) slots.push_back(w);
        }
        if (!slots.empty()) {
          size_t slot = slots[rng_.NextUint64(slots.size())];
          MembershipEvent ev;
          ev.kind = ever_active_[slot] ? MembershipEvent::Kind::kRejoin
                                       : MembershipEvent::Kind::kJoin;
          ev.node = slot;
          ev.at = at;
          ev.suspect_at = at;
          ev.detected_at = NextTick(at);
          poisson_pending_.push_back(ev);
        }
        RedrawNextPoissonJoin(at);
      }
    }
  };

  for (;;) {
    // Earliest detectable transition at or before `now`, across the
    // scripted plan and the materialized Poisson arrivals.
    Pending best;
    bool have = false;
    size_t best_script = 0;  // index into the matching fired vector
    size_t best_poisson = 0;
    enum class Src { kScriptJoin, kScriptLeave, kScriptRejoin, kPoisson };
    Src best_src = Src::kPoisson;
    auto consider = [&](const Pending& cand, Src src, size_t index) {
      if (cand.ev.detected_at > now) return;
      if (!have || cand.Before(best)) {
        best = cand;
        best_src = src;
        best_script = index;
        best_poisson = index;
        have = true;
      }
    };
    for (size_t i = 0; i < plan_.joins.size(); ++i) {
      if (join_fired_[i]) continue;
      const JoinWorkerEvent& e = plan_.joins[i];
      Pending cand;
      cand.ev.kind = MembershipEvent::Kind::kJoin;
      cand.ev.node = e.worker;
      cand.ev.at = e.at;
      cand.ev.suspect_at = e.at;
      cand.ev.detected_at = NextTick(e.at);
      consider(cand, Src::kScriptJoin, i);
    }
    for (size_t i = 0; i < plan_.leaves.size(); ++i) {
      if (leave_fired_[i]) continue;
      const LeaveWorkerEvent& e = plan_.leaves[i];
      Pending cand;
      cand.ev.kind = MembershipEvent::Kind::kLeave;
      cand.ev.node = e.worker;
      cand.ev.at = e.at;
      cand.ev.suspect_at = NextTick(e.at);
      cand.ev.detected_at = DetectionTick(e.at);
      consider(cand, Src::kScriptLeave, i);
    }
    for (size_t i = 0; i < plan_.rejoins.size(); ++i) {
      if (rejoin_fired_[i]) continue;
      const RejoinWorkerEvent& e = plan_.rejoins[i];
      Pending cand;
      cand.ev.kind = MembershipEvent::Kind::kRejoin;
      cand.ev.node = e.worker;
      cand.ev.at = e.at;
      cand.ev.suspect_at = e.at;
      cand.ev.detected_at = NextTick(e.at);
      consider(cand, Src::kScriptRejoin, i);
    }
    for (size_t i = 0; i < poisson_pending_.size(); ++i) {
      Pending cand;
      cand.ev = poisson_pending_[i];
      cand.poisson = true;
      consider(cand, Src::kPoisson, i);
    }
    // Time order: an arrival that lands before (or at) the next
    // detectable transition is materialized first, then we re-scan —
    // its detection may precede the transition we just found.
    const SimTime arrival = std::min(next_poisson_leave_, next_poisson_join_);
    if (arrival <= now && (!have || arrival <= best.ev.detected_at)) {
      materialize_one_arrival();
      continue;
    }
    if (!have) break;

    switch (best_src) {
      case Src::kScriptJoin: join_fired_[best_script] = true; break;
      case Src::kScriptLeave: leave_fired_[best_script] = true; break;
      case Src::kScriptRejoin: rejoin_fired_[best_script] = true; break;
      case Src::kPoisson:
        poisson_pending_.erase(poisson_pending_.begin() + best_poisson);
        break;
    }

    // Stale transitions (victim already gone, slot already active,
    // Poisson leave that would now violate the floor) are dropped.
    const MembershipEvent& ev = best.ev;
    bool applies = false;
    switch (ev.kind) {
      case MembershipEvent::Kind::kLeave:
        applies = ev.node < status_.size() &&
                  status_[ev.node] == Status::kActive &&
                  (!best.poisson || num_active_ > plan_.min_active_workers);
        break;
      case MembershipEvent::Kind::kJoin:
      case MembershipEvent::Kind::kRejoin:
        applies =
            ev.node < status_.size() && status_[ev.node] != Status::kActive;
        break;
    }
    if (!applies) continue;
    ApplyEvent(ev);
    fired.push_back(ev);
  }
  return fired;
}

SimTime MembershipTracker::NextEventTime() const {
  SimTime next = std::numeric_limits<double>::infinity();
  if (!enabled_) return next;
  for (size_t i = 0; i < plan_.joins.size(); ++i) {
    if (!join_fired_[i]) next = std::min(next, NextTick(plan_.joins[i].at));
  }
  for (size_t i = 0; i < plan_.leaves.size(); ++i) {
    if (!leave_fired_[i])
      next = std::min(next, DetectionTick(plan_.leaves[i].at));
  }
  for (size_t i = 0; i < plan_.rejoins.size(); ++i) {
    if (!rejoin_fired_[i]) next = std::min(next, NextTick(plan_.rejoins[i].at));
  }
  for (const MembershipEvent& p : poisson_pending_) {
    next = std::min(next, p.detected_at);
  }
  // Arrival times lower-bound the (later) detection times; an idle
  // caller advancing here materializes the arrival and re-asks.
  next = std::min(next, next_poisson_leave_);
  next = std::min(next, next_poisson_join_);
  return next;
}

double MembershipTracker::NextRecoveryJitter(double sigma) {
  if (sigma <= 0.0) return 1.0;
  return std::exp(sigma * rng_.NextGaussian());
}

std::vector<uint64_t> MembershipTracker::SaveWords() const {
  std::vector<uint64_t> words;
  for (uint64_t w : rng_.SaveState()) words.push_back(w);
  for (Status s : status_) words.push_back(static_cast<uint64_t>(s));
  for (bool b : ever_active_) words.push_back(b ? 1 : 0);
  words.insert(words.end(), num_servers_, 0);  // reserved, one per shard
  for (bool b : join_fired_) words.push_back(b ? 1 : 0);
  for (bool b : leave_fired_) words.push_back(b ? 1 : 0);
  for (bool b : rejoin_fired_) words.push_back(b ? 1 : 0);
  words.push_back(num_active_);
  words.push_back(std::bit_cast<uint64_t>(next_poisson_leave_));
  words.push_back(std::bit_cast<uint64_t>(next_poisson_join_));
  words.push_back(poisson_pending_.size());
  for (const MembershipEvent& p : poisson_pending_) {
    words.push_back(static_cast<uint64_t>(p.kind));
    words.push_back(p.node);
    words.push_back(std::bit_cast<uint64_t>(p.at));
    words.push_back(std::bit_cast<uint64_t>(p.suspect_at));
    words.push_back(std::bit_cast<uint64_t>(p.detected_at));
  }
  words.push_back(stats_.joins);
  words.push_back(stats_.leaves);
  words.push_back(stats_.rejoins);
  words.push_back(stats_.suspicions);
  words.push_back(0);  // reserved
  words.push_back(stats_.partitions_migrated);
  words.push_back(0);  // reserved
  words.push_back(stats_.degraded_rounds);
  words.push_back(std::bit_cast<uint64_t>(stats_.catchup_latency_sum));
  words.push_back(stats_.catchup_count);
  words.push_back(stats_.min_active);
  words.push_back(stats_.max_active);
  return words;
}

void MembershipTracker::RestoreWords(const std::vector<uint64_t>& words) {
  size_t i = 0;
  auto take = [&]() {
    MLLIBSTAR_CHECK(i < words.size());
    return words[i++];
  };
  std::array<uint64_t, Rng::kStateWords> rng_state;
  for (size_t k = 0; k < Rng::kStateWords; ++k) rng_state[k] = take();
  rng_.RestoreState(rng_state);
  for (Status& s : status_) s = static_cast<Status>(take());
  num_active_ = 0;
  for (Status s : status_) {
    if (s == Status::kActive) ++num_active_;
  }
  for (size_t w = 0; w < ever_active_.size(); ++w) ever_active_[w] = take() != 0;
  for (size_t s = 0; s < num_servers_; ++s) MLLIBSTAR_CHECK_EQ(take(), 0u);
  for (size_t k = 0; k < join_fired_.size(); ++k) join_fired_[k] = take() != 0;
  for (size_t k = 0; k < leave_fired_.size(); ++k) leave_fired_[k] = take() != 0;
  for (size_t k = 0; k < rejoin_fired_.size(); ++k)
    rejoin_fired_[k] = take() != 0;
  MLLIBSTAR_CHECK(take() == num_active_);
  next_poisson_leave_ = std::bit_cast<double>(take());
  next_poisson_join_ = std::bit_cast<double>(take());
  // Five words per pending arrival: the count is checked against the
  // words left before it sizes anything.
  const uint64_t pending = take();
  MLLIBSTAR_CHECK_LE(pending, (words.size() - i) / 5)
      << "the pending arrivals run past the membership words";
  poisson_pending_.assign(pending, MembershipEvent{});
  for (MembershipEvent& p : poisson_pending_) {
    const uint64_t kind = take();
    MLLIBSTAR_CHECK_LE(kind,
                       static_cast<uint64_t>(MembershipEvent::Kind::kRejoin))
        << "a pending arrival is not a worker event";
    p.kind = static_cast<MembershipEvent::Kind>(kind);
    p.node = take();
    p.at = std::bit_cast<double>(take());
    p.suspect_at = std::bit_cast<double>(take());
    p.detected_at = std::bit_cast<double>(take());
  }
  stats_.joins = take();
  stats_.leaves = take();
  stats_.rejoins = take();
  stats_.suspicions = take();
  MLLIBSTAR_CHECK_EQ(take(), 0u);  // reserved
  stats_.partitions_migrated = take();
  MLLIBSTAR_CHECK_EQ(take(), 0u);  // reserved
  stats_.degraded_rounds = take();
  stats_.catchup_latency_sum = std::bit_cast<double>(take());
  stats_.catchup_count = take();
  stats_.min_active = take();
  stats_.max_active = take();
  MLLIBSTAR_CHECK(i == words.size());
}

void RecordMembershipTransition(TraceLog* trace, const MembershipEvent& ev,
                                const std::string& node) {
  switch (ev.kind) {
    case MembershipEvent::Kind::kLeave:
      trace->Record(node, ev.at, ev.suspect_at,
                    ActivityKind::kMembershipLeave, "membership/leave");
      trace->Record(node, ev.suspect_at, ev.detected_at,
                    ActivityKind::kMembershipSuspect, "membership/suspected");
      break;
    case MembershipEvent::Kind::kJoin:
      trace->Record(node, ev.at, ev.detected_at,
                    ActivityKind::kMembershipJoin, "membership/join");
      break;
    case MembershipEvent::Kind::kRejoin:
      trace->Record(node, ev.at, ev.detected_at,
                    ActivityKind::kMembershipRejoin, "membership/rejoin");
      break;
  }
}

}  // namespace mllibstar
