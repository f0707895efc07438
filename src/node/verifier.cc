#include "node/verifier.h"

#include <algorithm>
#include <unordered_set>

#include "analysis/diversity.h"
#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::node {

namespace {

using common::Status;

bool SortedUniqueAscending(const std::vector<chain::TokenId>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] >= v[i]) return false;
  }
  return true;
}

bool SortedSubset(const std::vector<chain::TokenId>& a,
                  const std::vector<chain::TokenId>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

bool SortedDisjoint(const std::vector<chain::TokenId>& a,
                    const std::vector<chain::TokenId>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

void KeyDirectory::Register(chain::TokenId token, const crypto::Point& key) {
  keys_[token] = key;
}

bool KeyDirectory::Contains(chain::TokenId token) const {
  return keys_.count(token) > 0;
}

const crypto::Point& KeyDirectory::KeyOf(chain::TokenId token) const {
  auto it = keys_.find(token);
  TM_CHECK(it != keys_.end());
  return it->second;
}

Verifier::Verifier(const chain::Blockchain* bc, const chain::Ledger* ledger,
                   const core::BatchIndex* batches,
                   const chain::HtIndex* index, const KeyDirectory* keys,
                   const crypto::KeyImageRegistry* spent_images,
                   VerifierPolicy policy)
    : bc_(bc),
      ledger_(ledger),
      batches_(batches),
      index_(index),
      keys_(keys),
      spent_images_(spent_images),
      policy_(policy) {
  TM_CHECK(bc_ != nullptr && ledger_ != nullptr && batches_ != nullptr &&
           index_ != nullptr && keys_ != nullptr &&
           spent_images_ != nullptr);
}

common::Status Verifier::CheckInputState(const SignedTransaction& tx,
                                         size_t input_index) const {
  const TxInput& input = tx.inputs[input_index];
  const auto& ring = input.ring;

  // Structure.
  if (ring.size() < policy_.min_ring_size) {
    return Status::VerificationFailed(common::StrFormat(
        "ring size %zu below the floor %zu", ring.size(),
        policy_.min_ring_size));
  }
  if (!SortedUniqueAscending(ring)) {
    return Status::VerificationFailed("ring is not sorted-unique");
  }

  // 1. Tokens exist and share one batch.
  for (chain::TokenId t : ring) {
    if (!bc_->HasToken(t)) {
      return Status::VerificationFailed(
          common::StrFormat("ring references unknown token %llu",
                            static_cast<unsigned long long>(t)));
    }
  }
  size_t batch = batches_->BatchOfToken(ring.front()).index;
  for (chain::TokenId t : ring) {
    if (batches_->BatchOfToken(t).index != batch) {
      return Status::VerificationFailed("ring spans multiple batches");
    }
  }

  // 3. Fresh key image.
  if (spent_images_->Contains(input.signature.key_image)) {
    return Status::VerificationFailed(
        "key image already seen (double spend)");
  }

  // 4. First practical configuration against the batch history.
  if (policy_.enforce_configuration) {
    for (size_t i = 0; i < ledger_->size(); ++i) {
      const chain::RsView& existing =
          ledger_->view(static_cast<chain::RsId>(i));
      if (existing.members.empty()) continue;
      if (batches_->BatchOfToken(existing.members.front()).index != batch) {
        continue;
      }
      if (!SortedDisjoint(ring, existing.members) &&
          !SortedSubset(existing.members, ring)) {
        return Status::VerificationFailed(common::StrFormat(
            "ring partially overlaps rs %llu (first practical "
            "configuration)",
            static_cast<unsigned long long>(existing.id)));
      }
    }
  }

  // 5. Declared diversity (at ℓ+1 under the second configuration).
  chain::DiversityRequirement effective = input.requirement;
  if (policy_.enforce_strict_dtrs) effective.ell += 1;
  if (!analysis::SatisfiesRecursiveDiversity(ring, *index_, effective)) {
    return Status::VerificationFailed(common::StrFormat(
        "ring violates its declared %s%s", effective.ToString().c_str(),
        policy_.enforce_strict_dtrs ? " (strict-DTRS form)" : ""));
  }
  return Status::OK();
}

common::Status Verifier::CheckInputSignature(const SignedTransaction& tx,
                                             size_t input_index) const {
  const TxInput& input = tx.inputs[input_index];
  const auto& ring = input.ring;

  // 2. Key binding, then LSAG validity over the transaction message.
  if (input.signature.ring.size() != ring.size()) {
    return Status::VerificationFailed("signature ring size mismatch");
  }
  for (size_t i = 0; i < ring.size(); ++i) {
    if (!keys_->Contains(ring[i])) {
      return Status::VerificationFailed("token has no registered key");
    }
    if (input.signature.ring[i] != keys_->KeyOf(ring[i])) {
      return Status::VerificationFailed(
          "signature ring key does not match the chain's output key");
    }
  }
  if (!crypto::Lsag::Verify(input.signature, tx.SigningMessage(input_index))) {
    return Status::VerificationFailed("LSAG verification failed");
  }
  return Status::OK();
}

common::Status Verifier::VerifyInput(const SignedTransaction& tx,
                                     size_t input_index) const {
  if (input_index >= tx.inputs.size()) {
    return Status::InvalidArgument("input index out of range");
  }
  TM_RETURN_NOT_OK(CheckInputState(tx, input_index));
  return CheckInputSignature(tx, input_index);
}

common::Status Verifier::VerifyState(const SignedTransaction& tx) const {
  if (tx.inputs.empty()) {
    return Status::VerificationFailed("transaction has no inputs");
  }
  if (tx.output_count == 0) {
    return Status::VerificationFailed("transaction mints no outputs");
  }
  // Key images must also be distinct within the transaction.
  for (size_t i = 0; i < tx.inputs.size(); ++i) {
    for (size_t j = i + 1; j < tx.inputs.size(); ++j) {
      if (tx.inputs[i].signature.key_image ==
          tx.inputs[j].signature.key_image) {
        return Status::VerificationFailed(
            "duplicate key image within the transaction");
      }
    }
  }
  for (size_t i = 0; i < tx.inputs.size(); ++i) {
    TM_RETURN_NOT_OK(CheckInputState(tx, i));
  }
  return Status::OK();
}

common::Status Verifier::Verify(const SignedTransaction& tx) const {
  // State first: a transaction the chain would refuse anyway never pays
  // for curve math.
  TM_RETURN_NOT_OK(VerifyState(tx));
  for (size_t i = 0; i < tx.inputs.size(); ++i) {
    TM_RETURN_NOT_OK(CheckInputSignature(tx, i));
  }
  return Status::OK();
}

}  // namespace tokenmagic::node
