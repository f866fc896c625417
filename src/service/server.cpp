#include "src/service/server.hpp"

#include <algorithm>
#include <deque>

#include "src/service/rng.hpp"

namespace ardbt::service {

void Server::register_system(Fingerprint fp, SystemMaker make) {
  systems_[fp] = std::move(make);
}

int Server::queued_for_tenant(int tenant) const {
  int count = 0;
  for (const auto& [fp, batch] : open_) {
    for (const Request& r : batch.items) {
      if (r.tenant == tenant) ++count;
    }
  }
  return count;
}

int Server::queued_total() const {
  int count = 0;
  for (const auto& [fp, batch] : open_) count += static_cast<int>(batch.items.size());
  return count;
}

CircuitBreaker& Server::breaker(int tenant) {
  auto it = breakers_.find(tenant);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(tenant, CircuitBreaker(opts_.resilience.breaker_failures,
                                             opts_.resilience.breaker_cooldown_s))
             .first;
  }
  return it->second;
}

RetryBudget& Server::budget(int tenant) {
  auto it = budgets_.find(tenant);
  if (it == budgets_.end()) {
    it = budgets_
             .emplace(tenant, RetryBudget(opts_.resilience.retry_budget_ratio,
                                          opts_.resilience.retry_budget_burst))
             .first;
  }
  return it->second;
}

Admission Server::try_submit(Request req) {
  flush_until(req.arrival_s);
  if (systems_.find(req.system) == systems_.end()) {
    throw fault::InvalidArgumentError("service::Server::submit", "unregistered system fingerprint");
  }
  if (req.rhs.cols() != 1) {
    throw fault::InvalidArgumentError("service::Server::submit", "rhs must be a single column");
  }
  const ResilienceOptions& rs = opts_.resilience;
  // Admission pipeline: quota, overload shed, tenant breaker, deadline
  // feasibility — cheapest and most tenant-local first, so a shed storm
  // never masks a misbehaving tenant's quota signal.
  if (opts_.tenant_queue_quota > 0 && queued_for_tenant(req.tenant) >= opts_.tenant_queue_quota) {
    ++stats_.rejected;
    return Admission::kRejectedQuota;
  }
  if (rs.shed_queue_cols > 0 && queued_total() >= rs.shed_queue_cols) {
    ++stats_.resilience.shed;
    return Admission::kShed;
  }
  if (rs.shed_backlog_s > 0.0 && free_s_ - req.arrival_s > rs.shed_backlog_s) {
    ++stats_.resilience.shed;
    return Admission::kShed;
  }
  if (rs.breaker_failures > 0 && !breaker(req.tenant).allow(req.arrival_s)) {
    ++stats_.resilience.breaker_rejected;
    return Admission::kCircuitOpen;
  }
  if (req.deadline_s < kNever) {
    // Earliest the column can finish: its batch's close (the open one, or
    // a fresh window from now), the executor going idle, plus the
    // service-time estimate. A deadline already inside that horizon
    // cannot be met — reject now instead of burning queue space.
    auto open_it = open_.find(req.system);
    const double close_est =
        open_it != open_.end() ? open_it->second.close_s : req.arrival_s + opts_.window_s;
    const double finish_est = std::max(close_est, free_s_) + est_service_s_;
    if (req.deadline_s < finish_est) {
      ++stats_.resilience.deadline_infeasible;
      return Admission::kDeadlineInfeasible;
    }
  }
  ++stats_.submitted;
  if (rs.max_retries > 0) budget(req.tenant).on_admit();
  const Fingerprint fp = req.system;
  const double arrival_s = req.arrival_s;
  auto it = open_.find(fp);
  if (it == open_.end()) {
    it = open_.emplace(fp, OpenBatch{arrival_s + opts_.window_s, {}}).first;
  }
  it->second.items.push_back(std::move(req));
  if (opts_.max_batch_cols > 0 &&
      static_cast<la::index_t>(it->second.items.size()) >= opts_.max_batch_cols) {
    run_batch(fp, arrival_s);  // cap reached: close immediately
  }
  return Admission::kAdmitted;
}

double Server::next_close_s() const {
  double best = kNever;
  for (const auto& [fp, batch] : open_) {
    // Strict < keeps the smallest fingerprint on ties (map order).
    if (batch.close_s < best) best = batch.close_s;
  }
  return best;
}

void Server::flush_next() {
  double best = kNever;
  Fingerprint best_fp = 0;
  for (const auto& [fp, batch] : open_) {
    if (batch.close_s < best) {
      best = batch.close_s;
      best_fp = fp;
    }
  }
  if (best < kNever) run_batch(best_fp, best);
}

void Server::flush_until(double t_s) {
  while (next_close_s() < t_s) flush_next();
}

void Server::drain() {
  while (!open_.empty()) flush_next();
}

std::vector<Completion> Server::take_completions() {
  std::vector<Completion> out;
  out.swap(completions_);
  return out;
}

void Server::run_batch(Fingerprint fp, double close_s) {
  auto open_it = open_.find(fp);
  if (open_it == open_.end()) return;
  std::vector<Request> items = std::move(open_it->second.items);
  open_.erase(open_it);

  // Fairness: round-robin one column per tenant per pass, ascending
  // tenant id, within-tenant arrival order, capped by tenant_batch_share
  // and max_batch_cols. `selected` is the panel column order.
  std::map<int, std::deque<std::size_t>> per_tenant;
  for (std::size_t i = 0; i < items.size(); ++i) {
    per_tenant[items[i].tenant].push_back(i);
  }
  std::vector<std::size_t> selected;
  std::map<int, la::index_t> taken;
  bool progressed = true;
  while (progressed &&
         (opts_.max_batch_cols == 0 ||
          static_cast<la::index_t>(selected.size()) < opts_.max_batch_cols)) {
    progressed = false;
    for (auto& [tenant, queue] : per_tenant) {
      if (queue.empty()) continue;
      if (opts_.tenant_batch_share > 0 && taken[tenant] >= opts_.tenant_batch_share) continue;
      if (opts_.max_batch_cols > 0 &&
          static_cast<la::index_t>(selected.size()) >= opts_.max_batch_cols) {
        break;
      }
      selected.push_back(queue.front());
      queue.pop_front();
      ++taken[tenant];
      progressed = true;
    }
  }

  // Spill: columns that did not make the batch re-arm a fresh window.
  std::vector<Request> spill;
  for (auto& [tenant, queue] : per_tenant) {
    for (std::size_t i : queue) spill.push_back(std::move(items[i]));
  }
  if (!spill.empty()) {
    std::sort(spill.begin(), spill.end(),
              [](const Request& a, const Request& b) { return a.id < b.id; });
    OpenBatch rearmed{close_s + opts_.window_s, std::move(spill)};
    open_.emplace(fp, std::move(rearmed));
  }

  // Deadline cancellation: the executor is busy until free_s_, so a
  // column whose deadline precedes the batch's actual start can no longer
  // be served — it completes as kDeadlineExceeded without touching the
  // solver, and the rest of the batch proceeds.
  const double start_s = std::max(close_s, free_s_);
  std::vector<std::size_t> live;
  live.reserve(selected.size());
  for (std::size_t idx : selected) {
    const Request& r = items[idx];
    if (r.deadline_s < start_s) {
      ++stats_.resilience.deadline_cancelled;
      complete(r, Completion::kNoBatch, close_s, start_s, start_s, false,
               Outcome::kDeadlineExceeded, fault::ErrorCode::kDeadlineExceeded, 0, false, nullptr,
               0);
    } else {
      live.push_back(idx);
    }
  }
  if (live.empty()) return;

  // Assemble the panel over the surviving columns.
  const la::index_t rows = items[live.front()].rhs.rows();
  const la::index_t cols = static_cast<la::index_t>(live.size());
  la::Matrix panel(rows, cols);
  for (la::index_t j = 0; j < cols; ++j) {
    const la::Matrix& col = items[live[static_cast<std::size_t>(j)]].rhs;
    if (col.rows() != rows) {
      throw fault::InvalidArgumentError("service::Server", "mixed rhs sizes in one batch");
    }
    for (la::index_t i = 0; i < rows; ++i) panel(i, j) = col(i, 0);
  }

  // Solve through the cached Session, retrying transient failures under
  // the per-tenant budget. The Lease keeps the Session alive even if
  // acquiring a *different* system later evicts this entry. Failed
  // attempts are charged the service-time estimate (the engine run never
  // completed, so there is no measured time for it); the jitter stream is
  // seeded from the first live request id, so replays are bit-identical.
  const ResilienceOptions& rs = opts_.resilience;
  std::uint64_t jitter_state = rs.seed ^ (0x9e3779b97f4a7c15ull * (items[live.front()].id + 1));
  FactorCache::Lease lease;
  la::Matrix x;
  fault::Status failure;
  bool batch_failed = false;
  bool hedged = false;
  int attempts = 0;
  double waited_s = 0.0;  // virtual seconds of failed attempts + backoff
  for (;;) {
    ++attempts;
    try {
      lease = cache_.acquire(fp, systems_.at(fp));
      x = lease.session->solve(panel);
      break;
    } catch (const fault::InvalidArgumentError&) {
      throw;  // caller bug, not a runtime fault — containment does not apply
    } catch (const fault::SolveError& e) {
      failure = e.status();
      waited_s += est_service_s_;  // the failed attempt occupied the executor
      const bool want_retry =
          fault::is_transient(failure) && rs.max_retries > 0 && attempts <= rs.max_retries;
      if (want_retry && spend_retry_token(items, live)) {
        ++stats_.resilience.retries;
        if (rs.hedge && !hedged && (rs.hedge_delay_s > 0.0 || have_est_)) {
          // Hedged attempt: modeled as launched hedge_delay after the
          // primary, overlapping it — the failed primary costs only the
          // hedge delay instead of its full estimate plus a backoff.
          // Cold start guard: before the first completion the EWMA has no
          // sample (est_service_s_ == 0), so a derived hedge delay would be
          // zero — a free instant hedge for every transient failure in the
          // cold window. Without an explicit --hedge-delay the first
          // attempt falls back to the jittered backoff instead and hedging
          // arms itself once a real service time has been observed.
          hedged = true;
          ++stats_.resilience.hedges;
          const double delay =
              rs.hedge_delay_s > 0.0 ? rs.hedge_delay_s : 0.5 * est_service_s_;
          waited_s = std::max(0.0, waited_s - est_service_s_) + delay;
        } else {
          const double mean = rs.retry_backoff_s * static_cast<double>(1ull << (attempts - 1));
          waited_s += jittered(jitter_state, mean);
        }
        continue;
      }
      if (want_retry) ++stats_.resilience.retries_denied;
      batch_failed = true;
      break;
    }
  }

  if (batch_failed) {
    // Containment: only this batch's columns fail; the server loop and
    // every other tenant's work continue. A factorization breakdown also
    // drops the (suspect) cache entry so the next request refactors. The
    // per-incident postmortem bundle was already written by the Session's
    // own telemetry when the error was thrown.
    const fault::ErrorCode code = failure.code();
    if (code == fault::ErrorCode::kSingularPivot || code == fault::ErrorCode::kNonSpdPivot ||
        code == fault::ErrorCode::kBreakdown) {
      if (cache_.invalidate(fp)) ++stats_.resilience.invalidations;
    }
    ++stats_.resilience.contained_batches;
    const double finish_s = start_s + waited_s;
    free_s_ = finish_s;
    stats_.busy_s += finish_s - start_s;
    for (std::size_t idx : live) {
      const Request& r = items[idx];
      ++stats_.resilience.failed_cols;
      if (rs.breaker_failures > 0 && breaker(r.tenant).on_failure(finish_s)) {
        ++stats_.resilience.breaker_trips;
      }
      complete(r, Completion::kNoBatch, close_s, start_s, finish_s, false, Outcome::kFailed, code,
               attempts, hedged, nullptr, 0);
    }
    return;
  }

  const double solve_s = lease.session->last_solve_vtime();
  const double service_s = (lease.hit ? 0.0 : lease.factor_vtime_s) + solve_s;
  const double finish_s = start_s + waited_s + service_s;
  free_s_ = finish_s;
  est_service_s_ = have_est_ ? 0.5 * est_service_s_ + 0.5 * service_s : service_s;
  have_est_ = true;

  // A served batch can still be degraded: the ladder recovered (refine or
  // fallback rung), but the triggering status is surfaced per column and
  // a breakdown-flagged factorization is not worth reusing from cache.
  fault::ErrorCode served_error = fault::ErrorCode::kOk;
  if (const core::SolveOutcome* last = lease.session->last_outcome();
      last != nullptr && last->action != "ok") {
    // A recovery rung without a recorded trigger (refine/fallback solves
    // log status ok) still means "served degraded": surface kBreakdown.
    served_error = last->status.code() != fault::ErrorCode::kOk ? last->status.code()
                                                                : fault::ErrorCode::kBreakdown;
  }
  if (lease.session->breakdown()) {
    if (cache_.invalidate(fp)) ++stats_.resilience.invalidations;
  }

  const std::uint64_t batch_id = stats_.batches;
  ++stats_.batches;
  stats_.served += static_cast<std::uint64_t>(cols);
  stats_.batch_cols += static_cast<std::uint64_t>(cols);
  stats_.busy_s += finish_s - start_s;

  for (la::index_t j = 0; j < cols; ++j) {
    const Request& r = items[live[static_cast<std::size_t>(j)]];
    if (served_error != fault::ErrorCode::kOk) ++stats_.resilience.degraded_cols;
    if (rs.breaker_failures > 0) breaker(r.tenant).on_success();
    complete(r, batch_id, close_s, start_s, finish_s, lease.hit, Outcome::kDone, served_error,
             attempts, hedged, &x, j);
  }
}

bool Server::spend_retry_token(const std::vector<Request>& items,
                               const std::vector<std::size_t>& live) {
  int best_tenant = -1;
  double best_tokens = -1.0;
  for (std::size_t idx : live) {
    const int tenant = items[idx].tenant;
    const double tokens = budget(tenant).tokens();
    if (tokens > best_tokens) {
      best_tokens = tokens;
      best_tenant = tenant;
    }
  }
  return best_tenant >= 0 && budget(best_tenant).try_spend();
}

void Server::complete(const Request& r, std::uint64_t batch_id, double close_s, double start_s,
                      double finish_s, bool cache_hit, Outcome outcome, fault::ErrorCode error,
                      int attempts, bool hedged, const la::Matrix* x, la::index_t col) {
  Completion c;
  c.id = r.id;
  c.tenant = r.tenant;
  c.client = r.client;
  c.batch = batch_id;
  c.arrival_s = r.arrival_s;
  c.close_s = close_s;
  c.start_s = start_s;
  c.finish_s = finish_s;
  c.cache_hit = cache_hit;
  c.outcome = outcome;
  c.error = error;
  c.attempts = attempts;
  c.hedged = hedged;
  if (opts_.keep_solutions && x != nullptr) {
    la::Matrix column(x->rows(), 1);
    for (la::index_t i = 0; i < x->rows(); ++i) column(i, 0) = (*x)(i, col);
    c.x = std::move(column);
  }
  completions_.push_back(std::move(c));
}

}  // namespace ardbt::service
