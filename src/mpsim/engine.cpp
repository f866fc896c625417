#include "src/mpsim/engine.hpp"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/par/pool.hpp"

namespace ardbt::mpsim {

double RunReport::max_virtual_time() const {
  double m = 0.0;
  for (const auto& r : ranks) m = std::max(m, r.virtual_time);
  return m;
}

RankStats RunReport::totals() const {
  RankStats t;
  for (const auto& r : ranks) t.accumulate(r);
  return t;
}

namespace {

/// Everything one run shares between its ranks. Lives on run()'s stack;
/// every worker has signalled worker_done() before run() returns.
struct RunState {
  RunState(World& w, const RankFn& f, obs::Tracer* t, obs::live::FlightRecorder* rec,
           int threads, RunReport& rep)
      : world(w), fn(f), tracer(t), recorder(rec), pool_threads(threads), report(rep),
        rank_error(static_cast<std::size_t>(w.nranks)),
        rank_root_cause(static_cast<std::size_t>(w.nranks), 0),
        workers_running(w.nranks - 1) {}
  RunState(const RunState&) = delete;
  RunState& operator=(const RunState&) = delete;

  World& world;
  const RankFn& fn;
  obs::Tracer* tracer;
  obs::live::FlightRecorder* recorder;
  int pool_threads;
  RunReport& report;
  /// Per-rank error slots (no shared mutable state, no lock): the reported
  /// error is the lowest-numbered rank's root cause — deterministic however
  /// the threads were scheduled. Root causes (anything but AbortedError)
  /// take precedence over the AbortedError cascades they trigger in peers.
  std::vector<std::exception_ptr> rank_error;
  std::vector<char> rank_root_cause;

  std::mutex mu;
  std::condition_variable cv;
  int workers_running;  ///< ranks 1..P-1 not yet finished, guarded by mu

  /// Run rank `r` to completion on the calling thread. Every failure is
  /// caught and recorded, so nothing escapes into a worker's loop.
  void rank_main(int r) noexcept;

  void worker_done() {
    // Notify under the lock: run() may destroy this state as soon as it
    // can reacquire the mutex.
    std::lock_guard lock(mu);
    if (--workers_running == 0) cv.notify_one();
  }

  void wait_workers() {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return workers_running == 0; });
  }
};

void RunState::rank_main(int r) noexcept {
  const auto idx = static_cast<std::size_t>(r);
  Comm comm(world, r);
  if (tracer != nullptr) comm.set_trace(&tracer->rank(r));
  if (recorder != nullptr) comm.set_recorder(recorder->channel(r));
  // Each rank owns its pool for the duration of the run; worker-lane
  // spans are anchored on the rank's virtual clock via the Comm thunk.
  std::unique_ptr<par::Pool> pool;
  try {
    if (pool_threads > 1) {
      pool = std::make_unique<par::Pool>(pool_threads);
      if (tracer != nullptr && obs::kTraceCompiledIn) {
        std::vector<obs::RankTrace*> lanes;
        lanes.reserve(static_cast<std::size_t>(pool_threads));
        for (int w = 0; w < pool_threads; ++w) lanes.push_back(&tracer->worker(r, w));
        pool->set_trace(std::move(lanes), &Comm::now_sample_thunk, &comm);
      }
      comm.set_pool(pool.get());
    }
    fn(comm);
    comm.sync_compute();  // fold trailing compute into the clock
  } catch (const AbortedError&) {
    rank_error[idx] = std::current_exception();
    // This rank died of a dead peer; mark it dead too so failure
    // cascades along data-flow chains (a rank waiting on *us* must
    // not hang). Release-store after our last send (see Mailbox::pop).
    world.dead[idx].store(true, std::memory_order_release);
    for (auto& mb : world.mailboxes) mb.interrupt();
  } catch (...) {
    rank_error[idx] = std::current_exception();
    rank_root_cause[idx] = 1;
    world.dead[idx].store(true, std::memory_order_release);
    for (auto& mb : world.mailboxes) mb.interrupt();
  }
  RankStats s = comm.stats();
  s.virtual_time = comm.vtime();
  report.ranks[idx] = s;
}

/// A parked host thread that runs one rank of one run at a time. Between
/// jobs it blocks on its own condition variable — never spins, so a host
/// pinned to one CPU loses nothing to idle workers.
class Worker {
 public:
  Worker() = default;
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void start(RunState* run, int rank) {
    {
      std::lock_guard lock(mu_);
      run_ = run;
      rank_ = rank;
    }
    cv_.notify_one();
  }

 private:
  void loop() {
    for (;;) {
      RunState* run = nullptr;
      int rank = 0;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return run_ != nullptr; });
        run = std::exchange(run_, nullptr);
        rank = rank_;
      }
      run->rank_main(rank);
      run->worker_done();  // last touch of `run`
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  RunState* run_ = nullptr;  ///< pending job, guarded by mu_
  int rank_ = 0;
  std::thread thread_{[this] { loop(); }};  ///< last: starts after the members it uses
};

/// Process-wide free list of parked workers. A run takes what it needs and
/// hands the workers back only after it has joined them, so no worker ever
/// serves two in-flight runs and concurrent or nested runs cannot deadlock
/// on each other — an empty list just means a new worker.
///
/// Deliberately immortal: the registry and every worker are allocated
/// once and never freed, so process exit neither joins (no hang behind a
/// run still in flight on another thread) nor races static destruction
/// (nothing here is ever destroyed). Parked workers stay reachable through
/// `free_`, so leak checkers report nothing; the OS reaps the threads.
class Registry {
 public:
  static Registry& instance() {
    static Registry* const registry = new Registry;
    return *registry;
  }

  /// `n` workers for one run: parked ones first, new ones for the rest.
  std::vector<Worker*> acquire(int n) {
    std::vector<Worker*> taken;
    taken.reserve(static_cast<std::size_t>(n));
    {
      std::lock_guard lock(mu_);
      while (static_cast<int>(taken.size()) < n && !free_.empty()) {
        taken.push_back(free_.back());
        free_.pop_back();
      }
    }
    try {
      while (static_cast<int>(taken.size()) < n) taken.push_back(new Worker);
    } catch (...) {
      release(taken);
      throw;
    }
    return taken;
  }

  /// Return joined workers to the list.
  void release(const std::vector<Worker*>& workers) {
    std::lock_guard lock(mu_);
    free_.insert(free_.end(), workers.begin(), workers.end());
  }

 private:
  Registry() = default;

  std::mutex mu_;
  std::vector<Worker*> free_;  ///< guarded by mu_
};

}  // namespace

RunReport run(int nranks, const RankFn& fn, const EngineOptions& options) {
  if (nranks <= 0) throw std::invalid_argument("mpsim::run: nranks must be positive");
  if (options.threads_per_rank < 1)
    throw std::invalid_argument("mpsim::run: threads_per_rank must be >= 1");

  World world(nranks, options.cost, options.timing, options.vtime_origin);
  // An empty plan is equivalent to none: the per-message pointer test stays
  // null and no wire framing is added.
  if (options.fault_plan != nullptr && !options.fault_plan->empty()) {
    options.fault_plan->prepare(nranks);
    world.plan = options.fault_plan;
  }
  world.virtual_deadline = options.virtual_deadline;
  world.recv_timeout_wall = options.recv_timeout_wall;
  RunReport report;
  report.ranks.resize(static_cast<std::size_t>(nranks));

  // Size the per-rank event buffers before ranks start; a disabled
  // tracer is equivalent to none.
  obs::Tracer* tracer =
      (options.tracer != nullptr && options.tracer->enabled()) ? options.tracer : nullptr;
  const int pool_threads = options.threads_per_rank;
  if (tracer != nullptr) {
    tracer->prepare(nranks);
    // Worker lanes only exist when the hooks are compiled in — with the
    // obs kill switch a --trace run stays metadata-only, one track/rank.
    if (pool_threads > 1 && obs::kTraceCompiledIn) {
      tracer->prepare_workers(nranks, pool_threads);
    }
  }

  // Size the flight-recorder rank channels before ranks start; a
  // disabled recorder hands out null channels (channel() returns null).
  obs::live::FlightRecorder* recorder =
      (options.recorder != nullptr && options.recorder->enabled()) ? options.recorder : nullptr;
  if (recorder != nullptr) recorder->prepare(nranks);

  RunState state(world, fn, tracer, recorder, pool_threads, report);

  // Take every worker before any rank starts, so a failed spawn throws
  // with nothing in flight. Rank 0 runs here on the caller: a P=1 run
  // involves no other thread at all.
  Registry& registry = Registry::instance();
  const std::vector<Worker*> workers = registry.acquire(nranks - 1);
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 1; r < nranks; ++r) workers[static_cast<std::size_t>(r - 1)]->start(&state, r);
  state.rank_main(0);
  state.wait_workers();
  const auto t1 = std::chrono::steady_clock::now();
  registry.release(workers);
  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();

  for (int r = 0; r < nranks; ++r) {
    if (state.rank_root_cause[static_cast<std::size_t>(r)]) {
      std::rethrow_exception(state.rank_error[static_cast<std::size_t>(r)]);
    }
  }
  for (int r = 0; r < nranks; ++r) {
    if (state.rank_error[static_cast<std::size_t>(r)]) {
      std::rethrow_exception(state.rank_error[static_cast<std::size_t>(r)]);
    }
  }
  return report;
}

}  // namespace ardbt::mpsim
