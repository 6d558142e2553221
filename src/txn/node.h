// Per-node runtime of the CARAT testbed: physical resources (CPU, disks),
// the database partition, the before-image journal, the lock manager, the
// serialized TM server, and the DM-server execution logic.

#ifndef CARAT_TXN_NODE_H_
#define CARAT_TXN_NODE_H_

#include <memory>
#include <vector>

#include "db/buffer_pool.h"
#include "db/database.h"
#include "lock/lock_manager.h"
#include "model/params.h"
#include "sim/resource.h"
#include "sim/sync.h"  // FifoMutex (TM server), CountingSemaphore (DM pool)
#include "sim/task.h"
#include "txn/ids.h"
#include "util/random.h"
#include "wal/log.h"

namespace carat::txn {

/// One database request: a set of records to read (or read-modify-write) at
/// one node. Updates increment each accessed record by one, which lets the
/// harness verify atomicity and write serialization at the end of a run.
struct RequestSpec {
  int node = 0;
  bool update = false;
  std::vector<db::RecordId> records;
};

/// Picks `count` records of a node sized by `site`: uniform, or with the
/// site's hot/cold skew. Reads only sizing parameters, so any site can pick
/// records for another.
std::vector<db::RecordId> PickRecords(const model::SiteParams& site,
                                      int count, util::Rng* rng);

/// A node of the testbed.
class Node {
 public:
  /// `locks` may point at an externally owned lock manager (the testbed's
  /// per-site LockManagerSet); when null the node owns its own instance
  /// (standalone/unit-test use). Either way the manager must live on the
  /// same site timeline as `sim`.
  Node(sim::SitePort sim, int index, const model::SiteParams& params,
       lock::LockManager* locks = nullptr);

  int index() const { return index_; }
  const model::SiteParams& params() const { return params_; }

  // --- basic service wrappers ----------------------------------------------

  /// TM server handling of one message: waits for the (single) TM server,
  /// then consumes `cpu_ms` on this node's CPU. This is the serialization
  /// the model deliberately ignores (Section 5.5).
  sim::Task<void> TmHandle(double cpu_ms);

  /// Plain CPU burst.
  sim::Task<void> UseCpu(double cpu_ms);

  /// `blocks` database-disk block transfers.
  sim::Task<void> DbIo(int blocks);

  /// `blocks` journal block transfers (database disk unless the node is
  /// configured with a separate log disk).
  sim::Task<void> LogIo(int blocks);

  // --- DM server logic ------------------------------------------------------

  /// Per-transaction synchronization-time accounting, mirroring the model's
  /// delay centers: time blocked on locks (LW) is measured here; the driver
  /// adds remote-wait and commit-wait spans.
  struct PhaseAccounting {
    double lock_wait_ms = 0.0;    ///< LW: blocked on lock requests
    double remote_wait_ms = 0.0;  ///< RW: waiting for remote requests
    double commit_wait_ms = 0.0;  ///< CW: two-phase-commit synchronization
  };

  /// Executes one request on behalf of `gid` using cost parameters `costs`
  /// (the requester's class at this node). Returns false if the transaction
  /// was aborted as a deadlock victim while acquiring a lock; the caller
  /// must then run the global abort. Lock-wait time is credited to `acct`
  /// when provided.
  ///
  /// With `acquire_locks` false (the queue-oriented CC backend, which takes
  /// every granule lock up front via AcquireGranules) the per-record Acquire
  /// is skipped; the LR-phase CPU is still charged per record, as the
  /// lock-table lookup that finds the granule already held.
  sim::Task<bool> ExecuteRequest(GlobalTxnId gid,
                                 const model::ClassParams& costs,
                                 const RequestSpec& request,
                                 PhaseAccounting* acct = nullptr,
                                 bool acquire_locks = true);

  /// Queue-oriented backend: acquires `granules` (pre-sorted ascending by
  /// the caller) for `gid` in order through the normal FIFO lock queues.
  /// Charges no CPU — the LR phase is still paid per record inside
  /// ExecuteRequest — so a zero-contention run costs exactly what 2PL does.
  /// Wait time is credited to `acct` when provided. Returns false only if a
  /// wait was cancelled (impossible when every transaction follows the same
  /// global (node, granule) acquisition order).
  sim::Task<bool> AcquireGranules(GlobalTxnId gid,
                                  const std::vector<db::GranuleId>& granules,
                                  bool update,
                                  PhaseAccounting* acct = nullptr);

  /// Rolls `gid` back at this node: undo I/O for each journaled granule,
  /// unlock processing, lock release.
  sim::Task<void> RollbackAt(GlobalTxnId gid, const model::ClassParams& costs);

  /// Unlock processing and release at commit time.
  sim::Task<void> ReleaseLocksAt(GlobalTxnId gid,
                                 const model::ClassParams& costs);

  // --- facilities -----------------------------------------------------------
  sim::SitePort simulation() const { return sim_; }
  sim::FcfsResource& cpu() { return cpu_; }
  sim::FcfsResource& db_disk() { return db_disk_; }
  sim::FcfsResource& log_disk() { return log_disk_ ? *log_disk_ : db_disk_; }
  bool has_separate_log_disk() const { return log_disk_ != nullptr; }
  db::Database& database() { return database_; }
  wal::Log& log() { return log_; }
  lock::LockManager& locks() { return *locks_; }
  sim::FifoMutex& tm_mutex() { return tm_mutex_; }

  /// Null when the node runs without a buffer (the paper's configuration).
  db::BufferPool* buffer() { return buffer_.get(); }

  /// Null when the DM pool is unlimited.
  sim::CountingSemaphore* dm_pool() { return dm_pool_.get(); }

  void ResetStats();

 private:
  sim::SitePort sim_;
  int index_;
  model::SiteParams params_;
  sim::FcfsResource cpu_;
  sim::FcfsResource db_disk_;
  std::unique_ptr<sim::FcfsResource> log_disk_;  // null => shared with db
  db::Database database_;
  std::unique_ptr<db::BufferPool> buffer_;  // null => no buffer
  std::unique_ptr<sim::CountingSemaphore> dm_pool_;  // null => unlimited
  wal::Log log_;
  std::unique_ptr<lock::LockManager> owned_locks_;  // null => external
  lock::LockManager* locks_;
  sim::FifoMutex tm_mutex_;
};

}  // namespace carat::txn

#endif  // CARAT_TXN_NODE_H_
