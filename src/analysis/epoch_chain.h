// Epoch-chained AnalysisContext producer: the one interning path.
//
// Each Append() seals one *epoch segment* — dense-id extensions of the
// token/RS columns, a CSR segment for the new RS -> member edges,
// per-token tail entries for the token -> RS inverted index, and the
// token -> HT column tail — onto shared append-only storage, and View()
// returns an AnalysisContext over the sealed prefix in O(1). A chain of N
// blocks therefore pays O(delta) per block instead of O(history), and
// AnalysisContext::Build is simply a one-epoch chain over a from-scratch
// history. Sealed views are immutable and keep the shared core alive, so
// they stay valid and unchanged across any number of later appends (the
// equivalence suite checks every height against a sort-based reference
// interning kept in tests/).
//
// Dense-id preconditions (TM_CHECKed): appended tokens are ascending and
// greater than every interned token; appended RS ids are ascending and
// greater than every interned RS id; every member of an appended RS is
// already interned (append the epoch's tokens and views in one call).
// These hold on every producer path — tokens are minted densely in block
// order and ledger RS ids are dense ledger indices — and they are what
// makes append-only interning equal to sort-based interning of the same
// prefix.
//
// Threading: single writer, any number of sealed-view readers. Append()
// and View() must be externally serialized with each other
// (core::BatchSnapshots, the per-batch owner behind node::Node and
// TokenMagic, runs both in its writer, Sync, and hands readers only the
// sealed views). Readers of *previously sealed* views need no
// synchronization at all: appends only touch storage past every sealed
// prefix, and the one boundary the inverted-index tails share between
// writer and reader is crossed with atomics (see RsTailTable). The one
// thing readers write is the seal's SealMemo (analysis/context.h): each
// Append starts a fresh slot, and the first reader to ask for the seal's
// module index builds it under the slot's once-flag while any concurrent
// asker waits for that one build.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/context.h"
#include "chain/ht_index.h"
#include "chain/types.h"

namespace tokenmagic::analysis {

namespace internal {

/// Append-only column with generation buffers. Growth allocates a fresh
/// 2x buffer and copies the prefix; the old generation is *retired*, not
/// freed, until the column dies, so raw pointers captured by sealed views
/// never dangle and total memory stays <= 2x the live column. The writer
/// only ever writes at indices >= every sealed size, so readers of sealed
/// prefixes race with nothing.
template <typename T>
class GenColumn {
 public:
  const T* data() const { return data_; }
  size_t size() const { return size_; }

  void Reserve(size_t n) {
    if (n > cap_) Grow(n);
  }

  void Append(T value) {
    if (size_ == cap_) Grow(size_ + 1);
    data_[size_] = std::move(value);
    ++size_;
  }

 private:
  void Grow(size_t need) {
    size_t cap = cap_ < 8 ? 16 : cap_ * 2;
    while (cap < need) cap *= 2;
    auto fresh = std::make_unique<T[]>(cap);
    for (size_t i = 0; i < size_; ++i) fresh[i] = data_[i];
    data_ = fresh.get();
    cap_ = cap;
    generations_.push_back(std::move(fresh));
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t cap_ = 0;
  // tm-owns: every generation ever published (sealed views point into
  // retired generations; all die together with the column).
  std::vector<std::unique_ptr<T[]>> generations_;
};

/// The chained token -> RS inverted index: one append-only tail buffer of
/// ascending RS locals per token. Buffers are kNoLocal-filled past the
/// written prefix with >= 1 trailing sentinel, so a sealed view recovers
/// its per-token list length by scanning for the first entry >= its sealed
/// RS count — no per-view length bookkeeping, hence O(1) seals. The slot
/// pointers are atomics (buffer regrow republishes) and the boundary slot
/// is written/scanned with std::atomic_ref, which is the entire
/// writer/reader shared surface.
class RsTailTable {
 public:
  using Local = AnalysisContext::Local;

  /// The published slot array (readers index it with token locals < their
  /// sealed token count).
  const std::atomic<const Local*>* slots() const { return slots_; }

  /// Grows the table to cover `count` tokens (writer only).
  void EnsureTokens(size_t count);

  /// Appends RS local `rs` to `token`'s tail (writer only; per token the
  /// appended locals must ascend, which holds because epochs append RSs
  /// in ascending local order).
  void Push(Local token, Local rs);

 private:
  std::atomic<const Local*>* slots_ = nullptr;
  size_t token_cap_ = 0;
  // tm-owns: slot-array generations (sealed views hold the generation
  // current at their seal; stale generations stay correct because buffer
  // republications only ever *add* post-seal entries).
  std::vector<std::unique_ptr<std::atomic<const Local*>[]>> table_gens_;
  // Writer-side bookkeeping; readers never touch these.
  std::vector<uint32_t> len_;
  std::vector<uint32_t> cap_;
  // tm-owns: current buffer per token plus every retired (outgrown) one.
  std::vector<std::unique_ptr<Local[]>> current_;
  std::vector<std::unique_ptr<Local[]>> retired_;
};

}  // namespace internal

class EpochChain {
 public:
  using Local = AnalysisContext::Local;

  /// One sealed epoch's exclusive end offsets into the shared columns
  /// (introspection / bench instrumentation).
  struct EpochMeta {
    size_t token_end = 0;
    size_t rs_end = 0;
    size_t edge_end = 0;
    size_t ht_end = 0;
  };

  EpochChain();

  /// Seals one epoch: interns `new_tokens` (ascending, all greater than
  /// every interned token), then `views` (ascending ids, members already
  /// interned — i.e. drawn from the interned tokens plus `new_tokens`).
  /// `index`, when non-null, fills the new tokens' HT column tail.
  /// Either span may be empty; an all-empty append seals an empty epoch.
  void Append(std::span<const chain::RsView> views,
              const chain::HtIndex* index,
              std::span<const chain::TokenId> new_tokens);

  /// O(1): an AnalysisContext over everything appended so far. The view
  /// is sealed — immutable, co-owns the shared core, and stays valid and
  /// unchanged across later Append() calls. Every View() between two
  /// appends shares the seal's SealMemo, so the seal's module index is
  /// built at most once however many views are taken.
  AnalysisContext View() const;

  /// The interned history as RsViews in append order, aliasing the shared
  /// core (valid as long as any view/chain keeps the core alive; stable
  /// across later appends like any sealed data).
  std::span<const chain::RsView> History() const;

  size_t rs_count() const;
  size_t token_count() const;
  size_t epoch_count() const { return epochs_.size(); }
  const EpochMeta& epoch(size_t i) const { return epochs_[i]; }

 private:
  /// Shared append-only storage. Sealed views co-own it via shared_ptr,
  /// so the columns (including retired generations) outlive every reader.
  struct EpochCore {
    internal::GenColumn<chain::TokenId> token_ids;
    internal::GenColumn<chain::RsId> rs_ids;
    internal::GenColumn<chain::Timestamp> proposed_at;
    internal::GenColumn<chain::DiversityRequirement> requirement;
    internal::GenColumn<uint32_t> member_offsets;  // rs_count + 1 entries
    internal::GenColumn<Local> member_tokens;
    internal::GenColumn<Local> token_ht;
    internal::GenColumn<chain::TxId> ht_ids;
    internal::RsTailTable tails;
    // Owned copies of the appended views, append order == RS local order
    // (node snapshots expose this as their history span).
    internal::GenColumn<chain::RsView> history;
  };

  // tm-owns: the shared column storage (owner id: core_).
  std::shared_ptr<EpochCore> core_;
  // The current seal's memo slot, replaced by every Append (the old
  // seal's views keep theirs). Held here, never in EpochCore: the
  // memoized index keeps the core alive, so a core-owned slot would be a
  // cycle.
  std::shared_ptr<SealMemo> memo_;
  /// Writer-side HT interner (first-appearance order over the ascending
  /// token column).
  std::unordered_map<chain::TxId, Local> ht_local_;
  std::vector<EpochMeta> epochs_;
};

}  // namespace tokenmagic::analysis
