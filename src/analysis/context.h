// Interned columnar snapshot of one RS history (the shared analysis core).
//
// Every DA-MS algorithm in the paper is a traversal of the token <-> RS
// incidence structure. AnalysisContext interns that structure once per
// snapshot instead of per query:
//
//  * dense uint32 ids for tokens (sorted external order), RSs (history
//    order, ascending external ids) and HTs (first-appearance order over
//    the token column);
//  * a CSR array for RS -> member tokens and per-token tails for the
//    token -> RS inverted index;
//  * a flat token -> HT column replacing per-probe HtIndex hashing.
//
// A context is a sealed O(1) view over an EpochChain's shared append-only
// columns (analysis/epoch_chain.h), clipped to the RS/token counts at seal
// time. It is an immutable value: once obtained it never changes, so a
// block worth of selections (every target, every ladder stage, every
// analysis probe) shares one snapshot, and concurrent selectors share it
// without locks. The shared core is kept alive by `storage_`, so a sealed
// view outlives any later epoch append. Interning is per-history, not
// global — see DESIGN.md decisions 8 and 12.
//
// Every view of one seal (one EpochChain::Append) also shares that seal's
// SealMemo: one lazily built derived index (the module index of
// core/modules.h), built on first use behind one once-flag and freed with
// the last view of the seal. See DESIGN.md decision 16.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "chain/ht_index.h"
#include "chain/types.h"

namespace tokenmagic::analysis {

class AnalysisContext;
class EpochChain;

/// The derived-index slot of one sealed epoch, shared by every view of
/// that seal. It holds one immutable value, built by the first GetOrBuild
/// call on any thread (concurrent first callers block until it exists)
/// and freed with the last view of the seal. The slot must not be reached
/// from the value it holds: a value that co-owned its slot would never be
/// freed. Its one user is core::ModuleIndexOf, which keeps the analysis
/// layer free of core types.
class SealMemo {
 public:
  /// Builds the memoized value from a view of the seal.
  using Builder = std::shared_ptr<const void> (*)(const AnalysisContext&);

  /// The value: `build(view)` on the first call, the same pointer after.
  std::shared_ptr<const void> GetOrBuild(Builder build,
                                         const AnalysisContext& view) const;

  /// True once the value exists (a later GetOrBuild will not build).
  bool built() const;

 private:
  mutable std::once_flag once_;
  // The memoized value, written once inside once_.
  mutable std::shared_ptr<const void> value_;
  mutable std::atomic<bool> built_{false};
};

class AnalysisContext {
 public:
  /// Dense per-snapshot id (token, RS, or HT depending on column).
  using Local = uint32_t;
  /// "Not interned" sentinel for every Local-valued lookup.
  static constexpr Local kNoLocal = 0xFFFFFFFFu;

  AnalysisContext() = default;

  /// Interns `history` from scratch (and, optionally, extra `universe`
  /// tokens that may appear in prospective rings but in no history RS) as
  /// a one-epoch EpochChain and returns its view. When `index` is provided
  /// the token -> HT column is filled from it; tokens the index does not
  /// know keep an unknown HT. Precondition (TM_CHECKed): RS ids in
  /// `history` are strictly ascending.
  static AnalysisContext Build(std::span<const chain::RsView> history,
                               const chain::HtIndex* index = nullptr,
                               std::span<const chain::TokenId> universe = {});

  size_t rs_count() const { return rs_count_; }
  size_t token_count() const { return token_count_; }
  size_t ht_count() const { return ht_count_; }

  // -- RS column --------------------------------------------------------

  chain::RsId rs_id(Local rs) const { return rs_ids_[rs]; }
  chain::Timestamp proposed_at(Local rs) const { return proposed_at_[rs]; }
  const chain::DiversityRequirement& requirement(Local rs) const {
    return requirement_[rs];
  }

  /// Member tokens of RS `rs` as locals, in ascending external-id order
  /// (== ascending local order, since locals are rank-in-sorted-order).
  std::span<const Local> Members(Local rs) const {
    return {member_tokens_ + member_offsets_[rs],
            member_offsets_[rs + 1] - member_offsets_[rs]};
  }

  /// Local of an external RsId, or kNoLocal.
  Local LocalOfRs(chain::RsId id) const;

  /// Reconstructs the adversary-visible view of RS `rs` (adapter paths).
  chain::RsView ViewOf(Local rs) const;

  /// The interned history as RsViews in RS-local order, aliasing the
  /// epoch core (the same storage as EpochChain::History at seal time).
  std::span<const chain::RsView> History() const {
    return {history_, rs_count_};
  }

  // -- token column ------------------------------------------------------

  chain::TokenId token_id(Local token) const { return token_ids_[token]; }

  /// The whole token column (ascending external ids; index == local).
  std::span<const chain::TokenId> Tokens() const {
    return {token_ids_, token_count_};
  }

  /// Local of an external TokenId (binary search over the sorted token
  /// column), or kNoLocal when the token is not interned.
  Local LocalOfToken(chain::TokenId id) const;

  /// RSs containing token `token` as locals, ascending (== history order).
  std::span<const Local> RsOfToken(Local token) const;

  /// True when RS `rs` contains token local `token` (binary search over
  /// the token's RS list, which is typically tiny).
  bool RsContains(Local rs, Local token) const;

  // -- flat token -> HT column ------------------------------------------

  /// Dense HT id of a token, or kNoLocal when no HtIndex was supplied or
  /// the index did not know the token.
  Local HtLocalOf(Local token) const { return token_ht_[token]; }

  /// External HT id of a token, or chain::kInvalidTx when unknown.
  chain::TxId HtOf(Local token) const {
    Local h = token_ht_[token];
    return h == kNoLocal ? chain::kInvalidTx : ht_ids_[h];
  }

  chain::TxId ht_id(Local ht) const { return ht_ids_[ht]; }

  // -- seal identity -----------------------------------------------------

  /// The keep-alive of the epoch core every column above points into. A
  /// holder of spans into this view that must outlive it keeps this
  /// instead of a context copy (which would also co-own the memo slot).
  const std::shared_ptr<const void>& storage() const { return storage_; }

  /// The seal's derived-index slot, shared by every view of the seal;
  /// null only for a default-constructed context.
  const SealMemo* memo() const { return memo_.get(); }

 private:
  friend class EpochChain;

  // tm-owns: keep-alive of the shared EpochCore every pointer below
  // reads. Shared, so copying a context is cheap and always safe.
  std::shared_ptr<const void> storage_;
  // tm-owns: shared slot of this view's seal (every View() of one epoch
  // holds the same one; the chain drops its reference on the next Append).
  std::shared_ptr<const SealMemo> memo_;

  // Pointer read surface into the epoch core's sealed column prefixes.
  // All spans handed out alias this storage.
  // tm-borrows(storage_): every raw pointer below.
  const chain::TokenId* token_ids_ = nullptr;
  const chain::RsId* rs_ids_ = nullptr;
  const chain::Timestamp* proposed_at_ = nullptr;
  const chain::DiversityRequirement* requirement_ = nullptr;
  // tm-borrows(storage_): the epoch core's owned RsView copies.
  const chain::RsView* history_ = nullptr;
  // tm-borrows(storage_): RS -> member CSR columns.
  const uint32_t* member_offsets_ = nullptr;
  const Local* member_tokens_ = nullptr;
  // tm-borrows(storage_): per-token RS tail table. Slot pointers are
  // atomics because a concurrent epoch append may regrow a token's buffer
  // while this sealed view reads it.
  const std::atomic<const Local*>* rs_tails_ = nullptr;
  // tm-borrows(storage_): flat token -> dense HT column and dense -> external.
  const Local* token_ht_ = nullptr;
  const chain::TxId* ht_ids_ = nullptr;

  size_t token_count_ = 0;
  size_t rs_count_ = 0;
  size_t ht_count_ = 0;
};

}  // namespace tokenmagic::analysis
