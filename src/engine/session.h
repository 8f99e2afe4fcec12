#pragma once

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "engine/database.h"
#include "obs/trace_log.h"
#include "sched/thread_pool.h"

namespace elephant {

/// One client connection to a Database. Statement state (per-session hints,
/// statement counter, last error) is isolated per session; the catalog,
/// buffer pool, and disk are shared through the Database.
///
/// A Session may be driven from any single thread at a time. Statements
/// across *different* sessions may run concurrently: every SELECT, INSERT
/// and CREATE INDEX takes table locks, with or without the WAL, and the
/// storage layer latches, the per-query IoSink accounting, and the
/// thread-safe metrics registry keep shared state consistent. CREATE TABLE
/// and bulk loads through the C++ API (Table::BulkLoad, the TPC-H loader,
/// CTableBuilder::Build, ViewManager::CreateView) are not synchronized —
/// run them from one session before fanning out.
class Session {
 public:
  Session(Database* db, int id) : db_(db), id_(id) {}

  int id() const { return id_; }

  /// Per-session default hints, merged into every statement this session
  /// executes (e.g. set PARALLEL once for the whole session).
  PlanHints& default_hints() { return default_hints_; }

  /// Executes one statement on the calling thread. The session id is
  /// attached to the thread for the statement's duration, so trace process
  /// tracks attribute everything the statement does — including worker
  /// tasks, which inherit the id through TaskGroup — to this session.
  Result<QueryResult> Execute(const std::string& sql, PlanHints hints = {}) {
    statements_++;
    obs::SessionIdScope session_scope(id_);
    Result<QueryResult> r =
        db_->Execute(sql, default_hints_.Merge(hints), &txn_state_);
    if (!r.ok()) last_error_ = r.status().ToString();
    return r;
  }

  uint64_t statements_executed() const { return statements_; }
  const std::string& last_error() const { return last_error_; }

  /// True while this session has an explicit transaction open (including
  /// one parked in aborted limbo awaiting ROLLBACK).
  bool in_transaction() const { return txn_state_.txn != nullptr; }

 private:
  Database* db_;
  int id_;
  PlanHints default_hints_;
  /// This session's transaction slot: BEGIN opens into it, later statements
  /// join it, COMMIT/ROLLBACK close it. Each session transacting on its own
  /// slot is what lets concurrent writers contend only on table locks.
  SessionTxnState txn_state_;
  uint64_t statements_ = 0;
  std::string last_error_;
};

/// Multiplexes N concurrent sessions over one Database. Owns a statement
/// scheduler (thread pool) that is deliberately separate from the Database's
/// intra-query worker pool: a session task blocked inside Execute() can
/// never starve the workers a PARALLEL plan inside it is waiting for.
class SessionManager {
 public:
  /// `session_threads` sizes the statement scheduler (0 = hardware default).
  explicit SessionManager(Database* db, size_t session_threads = 0)
      : db_(db),
        pool_(session_threads > 0 ? session_threads
                                  : sched::ThreadPool::DefaultThreads(),
              "session") {}

  /// Opens a new session; the returned pointer stays valid for the manager's
  /// lifetime.
  Session* OpenSession() {
    MutexLock lock(mu_);
    sessions_.push_back(std::make_unique<Session>(
        db_, static_cast<int>(sessions_.size())));
    return sessions_.back().get();
  }

  /// Schedules one statement on the session's behalf; the future resolves
  /// with the statement's result. Statements submitted for the same session
  /// should not overlap (a session is single-threaded by contract).
  std::future<Result<QueryResult>> Submit(Session* session, std::string sql,
                                          PlanHints hints = {}) {
    return pool_.Async([session, sql = std::move(sql), hints] {
      return session->Execute(sql, hints);
    });
  }

  /// Runs one statement per entry concurrently — each on its own session —
  /// and returns the results in input order. Fails on the first statement
  /// error (remaining statements still run to completion).
  Result<std::vector<QueryResult>> ExecuteConcurrently(
      const std::vector<std::string>& sqls, PlanHints hints = {});

  size_t num_sessions() const {
    MutexLock lock(mu_);
    return sessions_.size();
  }

  sched::ThreadPool& scheduler() { return pool_; }

 private:
  Database* db_;
  sched::ThreadPool pool_;
  mutable Mutex mu_{LockRank::kSessionManager, "SessionManager::mu_"};
  std::vector<std::unique_ptr<Session>> sessions_ GUARDED_BY(mu_);
};

}  // namespace elephant
