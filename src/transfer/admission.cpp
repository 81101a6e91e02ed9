#include "transfer/admission.h"

#include <algorithm>

namespace nest::transfer {

double AdmissionController::rate_per_ns_locked(Nanos now) const {
  if (rate_per_ns_ > 0) return rate_per_ns_;
  // No full window yet: use the partial one once it has enough signal
  // (a quarter window with at least one completion) so startup overload
  // is detected before the first rollover.
  if (window_start_ >= 0 && window_count_ > 0 &&
      now - window_start_ >= opts_.rate_window / 4) {
    return static_cast<double>(window_count_) /
           static_cast<double>(now - window_start_);
  }
  return 0.0;
}

double AdmissionController::predicted_wait_ns_locked(Nanos now) const {
  const double rate = rate_per_ns_locked(now);
  if (rate <= 0) return 0.0;
  return static_cast<double>(outstanding_ + 1) / rate;
}

AdmissionController::Verdict AdmissionController::admit(
    const std::string& protocol, const std::string& user) {
  if (!enabled()) return Verdict::admitted;
  Verdict v = Verdict::admitted;
  {
    MutexLock lock(mu_);
    if (opts_.max_queue > 0 && outstanding_ >= opts_.max_queue) {
      v = Verdict::shed_queue;
      ++shed_queue_;
    } else if (opts_.max_queue > 0) {
      // Fair share of the queue bound across currently-active users; a
      // user at their share is shed even while global capacity remains.
      const std::size_t users = user_out_.empty() ? 1 : user_out_.size();
      const std::int64_t share =
          std::max<std::int64_t>(1, opts_.max_queue /
                                        static_cast<std::int64_t>(users));
      const auto it = user_out_.find(user);
      if (it != user_out_.end() && it->second >= share) {
        v = Verdict::shed_user;
        ++shed_user_;
      }
    }
    if (v == Verdict::admitted && opts_.target_ms > 0) {
      const double wait_ns = predicted_wait_ns_locked(clock_.now());
      const double budget_ns = opts_.target_ms * 1e6 * opts_.headroom;
      if (wait_ns > budget_ns) {
        // No-starvation escape: a class with nothing outstanding gets its
        // one probe request through regardless of the prediction.
        const auto it = class_out_.find(protocol);
        if (it != class_out_.end() && it->second > 0) {
          v = Verdict::shed_latency;
          ++shed_latency_;
        }
      }
    }
    if (v == Verdict::admitted) ++admitted_;
  }
  return v;
}

void AdmissionController::on_create(const std::string& protocol,
                                    const std::string& user) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  ++outstanding_;
  ++class_out_[protocol];
  ++user_out_[user];
}

void AdmissionController::on_complete(const std::string& protocol,
                                      const std::string& user) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  if (outstanding_ > 0) --outstanding_;
  // Erase-at-zero keeps both maps O(currently active), not O(ever seen) —
  // a churning user population must not accrete bookkeeping.
  auto cit = class_out_.find(protocol);
  if (cit != class_out_.end() && --cit->second <= 0) class_out_.erase(cit);
  auto uit = user_out_.find(user);
  if (uit != user_out_.end() && --uit->second <= 0) user_out_.erase(uit);
  const Nanos now = clock_.now();
  if (window_start_ < 0) window_start_ = now;
  ++window_count_;
  if (now - window_start_ >= opts_.rate_window) {
    rate_per_ns_ = static_cast<double>(window_count_) /
                   static_cast<double>(now - window_start_);
    window_start_ = now;
    window_count_ = 0;
  }
}

AdmissionController::Snapshot AdmissionController::snapshot() const {
  MutexLock lock(mu_);
  Snapshot s;
  s.outstanding = outstanding_;
  s.admitted = admitted_;
  s.shed_queue = shed_queue_;
  s.shed_user = shed_user_;
  s.shed_latency = shed_latency_;
  s.shed = shed_queue_ + shed_user_ + shed_latency_;
  const Nanos now = clock_.now();
  s.predicted_wait_ms = predicted_wait_ns_locked(now) / 1e6;
  s.completion_rate_per_sec = rate_per_ns_locked(now) * 1e9;
  s.active_users = user_out_.size();
  s.active_classes = class_out_.size();
  return s;
}

const char* verdict_name(AdmissionController::Verdict v) {
  switch (v) {
    case AdmissionController::Verdict::admitted: return "admitted";
    case AdmissionController::Verdict::shed_queue: return "queue";
    case AdmissionController::Verdict::shed_user: return "user";
    case AdmissionController::Verdict::shed_latency: return "latency";
  }
  return "?";
}

}  // namespace nest::transfer
