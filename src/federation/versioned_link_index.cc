#include "federation/versioned_link_index.h"

#include <utility>

#include "obs/metrics.h"

namespace alex::fed {
namespace {

struct VersionMetrics {
  obs::Counter& commits =
      obs::MetricsRegistry::Global().counter("fed.link_commits");
  obs::Counter& committed_adds =
      obs::MetricsRegistry::Global().counter("fed.link_commit_adds");
  obs::Counter& committed_removes =
      obs::MetricsRegistry::Global().counter("fed.link_commit_removes");
  obs::Counter& snapshot_copies =
      obs::MetricsRegistry::Global().counter("fed.link_snapshot_copies");

  static VersionMetrics& Get() {
    static VersionMetrics* metrics = new VersionMetrics();
    return *metrics;
  }
};

}  // namespace

VersionedLinkIndex::VersionedLinkIndex() : VersionedLinkIndex(LinkIndex()) {}

VersionedLinkIndex::VersionedLinkIndex(LinkIndex initial) {
  published_ = MakeSnapshot(std::make_unique<LinkIndex>(std::move(initial)),
                            version_);
  published_epoch_.store(published_->epoch(), std::memory_order_release);
}

std::shared_ptr<const LinkIndex> VersionedLinkIndex::MakeSnapshot(
    std::unique_ptr<LinkIndex> index, uint64_t version) const {
  // The deleter receives the non-const LinkIndex* it was constructed with,
  // so a returned buffer can be mutated again without a cast.
  return std::shared_ptr<const LinkIndex>(
      index.release(), [slot = retired_, version](LinkIndex* buffer) {
        // Declared before the lock so an older buffer it ends up owning is
        // freed after the lock is released.
        std::unique_ptr<LinkIndex> owned(buffer);
        std::lock_guard<std::mutex> lock(slot->mu);
        if (slot->index == nullptr || slot->version < version) {
          slot->index.swap(owned);
          slot->version = version;
        }
      });
}

std::shared_ptr<const LinkIndex> VersionedLinkIndex::Acquire() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return published_;
}

void VersionedLinkIndex::StageAdd(std::string left_iri,
                                  std::string right_iri) {
  std::lock_guard<std::mutex> lock(write_mu_);
  staged_.push_back(
      StagedOp{/*add=*/true, std::move(left_iri), std::move(right_iri)});
}

void VersionedLinkIndex::StageRemove(std::string left_iri,
                                     std::string right_iri) {
  std::lock_guard<std::mutex> lock(write_mu_);
  staged_.push_back(
      StagedOp{/*add=*/false, std::move(left_iri), std::move(right_iri)});
}

size_t VersionedLinkIndex::staged_ops() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return staged_.size();
}

std::unique_ptr<LinkIndex> VersionedLinkIndex::TakeSpareLocked() {
  std::unique_ptr<LinkIndex> retired;
  uint64_t retired_version = 0;
  {
    std::lock_guard<std::mutex> lock(retired_->mu);
    retired = std::move(retired_->index);
    retired_version = retired_->version;
  }
  if (retired != nullptr && replay_ok_ && retired_version + 1 == version_) {
    // Replaying the exact effective operations in order reproduces the
    // published snapshot bit for bit: same interning, adjacency order and
    // epoch.
    for (const StagedOp& op : last_ops_) {
      if (op.add) {
        retired->Add(op.left_iri, op.right_iri);
      } else {
        retired->Remove(op.left_iri, op.right_iri);
      }
    }
    return retired;
  }
  // The previous snapshot is still held by a reader (or there has been
  // only one so far): copy the published one, which no one mutates.
  VersionMetrics::Get().snapshot_copies.Add(1);
  return std::make_unique<LinkIndex>(*Acquire());
}

CommitResult VersionedLinkIndex::Commit() {
  std::lock_guard<std::mutex> lock(write_mu_);
  std::unique_ptr<LinkIndex> next = TakeSpareLocked();
  CommitResult result;
  last_ops_.clear();
  for (StagedOp& op : staged_) {
    const bool effective = op.add ? next->Add(op.left_iri, op.right_iri)
                                  : next->Remove(op.left_iri, op.right_iri);
    if (!effective) continue;
    ++(op.add ? result.added : result.removed);
    last_ops_.push_back(std::move(op));
  }
  staged_.clear();
  replay_ok_ = true;
  ++version_;
  result.epoch = next->epoch();
  Publish(MakeSnapshot(std::move(next), version_));
  result.sequence =
      commit_sequence_.fetch_add(1, std::memory_order_acq_rel) + 1;

  VersionMetrics& metrics = VersionMetrics::Get();
  metrics.commits.Add(1);
  metrics.committed_adds.Add(result.added);
  metrics.committed_removes.Add(result.removed);
  return result;
}

void VersionedLinkIndex::Reset(LinkIndex state) {
  std::lock_guard<std::mutex> lock(write_mu_);
  staged_.clear();
  last_ops_.clear();
  replay_ok_ = false;
  ++version_;
  Publish(MakeSnapshot(std::make_unique<LinkIndex>(std::move(state)),
                       version_));
}

void VersionedLinkIndex::Publish(std::shared_ptr<const LinkIndex> snapshot) {
  const uint64_t epoch = snapshot->epoch();
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    published_.swap(snapshot);
  }
  published_epoch_.store(epoch, std::memory_order_release);
  // `snapshot` now holds the retired view; dropping it here, outside
  // publish_mu_, returns its buffer to retired_ unless a reader holds it.
}

void VersionedLinkIndex::SaveState(BinaryWriter* w) const {
  Acquire()->SaveState(w);
}

Status VersionedLinkIndex::LoadState(BinaryReader* r) {
  // Parse into a scratch index first so a corrupt payload cannot leave this
  // object half-restored (LinkIndex::LoadState is itself all-or-nothing,
  // but going through Reset keeps the snapshot and epoch atomic too).
  LinkIndex loaded;
  ALEX_RETURN_NOT_OK(loaded.LoadState(r));
  Reset(std::move(loaded));
  return Status::OK();
}

}  // namespace alex::fed
