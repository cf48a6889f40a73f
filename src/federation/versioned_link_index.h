#ifndef ALEX_FEDERATION_VERSIONED_LINK_INDEX_H_
#define ALEX_FEDERATION_VERSIONED_LINK_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "federation/link_index.h"

namespace alex::fed {

/// Outcome of one Commit().
struct CommitResult {
  /// Staged operations that took effect (a duplicate Add or an absent
  /// Remove is a no-op and does not count).
  size_t added = 0;
  size_t removed = 0;
  /// published_epoch() after the commit.
  uint64_t epoch = 0;
  /// 1-based commit ordinal (equals commit_sequence() after the call).
  uint64_t sequence = 0;
};

/// Read-mostly, epoch-versioned snapshot view over a LinkIndex — the
/// concurrency substrate of the link service (DESIGN.md "Link service").
///
/// The plain LinkIndex mutates in place and bumps its epoch on every
/// Add/Remove, which is the right granularity for the single-threaded
/// episode loop but not for a service where N client threads query while
/// feedback arrives: readers would race mutations.
///
/// This wrapper splits the two roles:
///  - Readers call Acquire() and get a shared_ptr to an immutable published
///    snapshot. A query executes entirely against that snapshot, unaffected
///    by concurrent staging or commits; the snapshot stays alive (shared
///    ownership) until the last in-flight query drops it.
///  - Writers stage mutations (StageAdd/StageRemove); nothing is visible to
///    readers until Commit() applies the staged batch to a spare buffer and
///    publishes it. Only then does published_epoch() move.
///
/// Two buffers, so a commit costs O(staged ops), not O(links): when the
/// last holder of a retired snapshot lets go, the snapshot's deleter hands
/// its buffer back to this index (a one-entry slot that keeps only the
/// newest retired buffer). The next commit takes it, replays the previous
/// commit's effective operations to bring it level with the published
/// snapshot, then applies the newly staged ones and publishes it. Only
/// when the previous snapshot is still held by a reader (the slot holds an
/// older buffer, or none) does the commit fall back to copying the
/// published snapshot; fed.link_snapshot_copies counts those copies.
///
/// Thread-safe. Acquire()/published_epoch() are cheap (one short mutex hold
/// / one atomic load) and never block behind a commit, whose buffer work
/// happens outside the publish lock.
class VersionedLinkIndex {
 public:
  VersionedLinkIndex();
  /// Seeds the first published snapshot (epoch included) from an existing
  /// LinkIndex.
  explicit VersionedLinkIndex(LinkIndex initial);

  VersionedLinkIndex(const VersionedLinkIndex&) = delete;
  VersionedLinkIndex& operator=(const VersionedLinkIndex&) = delete;

  /// The current published snapshot. Never null. The caller may query it
  /// for as long as it holds the pointer; later commits do not mutate it.
  std::shared_ptr<const LinkIndex> Acquire() const;

  /// Epoch of the published snapshot — moves only at an effective Commit()
  /// or a Reset(), not per staged mutation.
  uint64_t published_epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// Commits performed so far.
  uint64_t commit_sequence() const {
    return commit_sequence_.load(std::memory_order_acquire);
  }

  /// Link count of the published snapshot.
  size_t size() const { return Acquire()->size(); }

  /// Stages one mutation for the next Commit(). Cheap; never blocks
  /// readers.
  void StageAdd(std::string left_iri, std::string right_iri);
  void StageRemove(std::string left_iri, std::string right_iri);

  /// Staged operations not yet committed.
  size_t staged_ops() const;

  /// Applies every staged operation to a spare buffer and publishes it as
  /// the new immutable snapshot. Queries already running on the previous snapshot
  /// are unaffected and keep their view; queries that Acquire() after the
  /// publish see the new one. A commit with no effective mutations still
  /// publishes (sequence bumps) but keeps the epoch.
  CommitResult Commit();

  /// Replaces the whole index (published snapshot + epoch) and drops any
  /// staged operations. Used by checkpoint restore.
  void Reset(LinkIndex state);

  /// Serializes the published snapshot (bit-identical restore via
  /// LoadState, epoch included). Staged, uncommitted operations are NOT part of a
  /// snapshot — they correspond to feedback whose episode has not been
  /// committed; checkpoint at commit boundaries (as LinkService does) and
  /// nothing is pending.
  void SaveState(BinaryWriter* w) const;

  /// Restores a SaveState() snapshot, replacing this index. All-or-nothing:
  /// on a corrupt payload the index is left untouched.
  Status LoadState(BinaryReader* r);

 private:
  struct StagedOp {
    bool add = true;
    std::string left_iri;
    std::string right_iri;
  };

  /// Where a retired snapshot's buffer lands once its last holder drops
  /// it. Shared with every snapshot's deleter, so it outlives this index
  /// when a reader does.
  struct RetiredSlot {
    std::mutex mu;
    /// The newest retired buffer and the version it holds; null when none
    /// came back (yet) or the commit took it.
    std::unique_ptr<LinkIndex> index;
    uint64_t version = 0;
  };

  /// Wraps `index`, which holds `version`, as a published snapshot whose
  /// deleter returns the buffer to retired_.
  std::shared_ptr<const LinkIndex> MakeSnapshot(
      std::unique_ptr<LinkIndex> index, uint64_t version) const;

  /// A private buffer equal to the published snapshot: the retired buffer
  /// with last_ops_ replayed onto it when it is the one published just
  /// before, else a copy. Callers hold write_mu_.
  std::unique_ptr<LinkIndex> TakeSpareLocked();

  /// Swaps `snapshot` in as the published view and drops the caller's hold
  /// on the one it replaces. Callers hold write_mu_.
  void Publish(std::shared_ptr<const LinkIndex> snapshot);

  /// Serializes stagers and committers; guards staged_, last_ops_,
  /// replay_ok_ and version_. Ordering: write_mu_ may be held when taking
  /// publish_mu_ or retired_->mu, never the reverse; retired_->mu is a
  /// leaf.
  mutable std::mutex write_mu_;
  std::vector<StagedOp> staged_;
  /// Effective operations of the last commit: they take the buffer of
  /// version_ - 1 to the published version_. Meaningless (replay_ok_
  /// false) after construction and Reset(), whose predecessor is unrelated.
  std::vector<StagedOp> last_ops_;
  bool replay_ok_ = false;
  /// Bumped by every publish; tags buffers so a retired one is recycled
  /// only onto the version it is one commit behind.
  uint64_t version_ = 0;
  std::shared_ptr<RetiredSlot> retired_ = std::make_shared<RetiredSlot>();

  /// Guards only the published_ pointer swap/copy — held for a few
  /// instructions, so readers never wait behind a commit.
  mutable std::mutex publish_mu_;
  std::shared_ptr<const LinkIndex> published_;

  std::atomic<uint64_t> published_epoch_{0};
  std::atomic<uint64_t> commit_sequence_{0};
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_VERSIONED_LINK_INDEX_H_
