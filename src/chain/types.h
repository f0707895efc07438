// Core UTXO-model value types shared across the library.
//
// Terminology follows the paper: a *token* is an unspent transaction output;
// the *historical transaction* (HT) of a token is the transaction that
// created it; a *ring signature* (RS) is, combinatorially, a set of tokens
// of which exactly one (hidden) member is spent.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace tokenmagic::chain {

using TokenId = uint64_t;
using TxId = uint64_t;       ///< historical-transaction (HT) identifier
using RsId = uint64_t;
using BlockHeight = uint64_t;
using Timestamp = uint64_t;  ///< logical proposal time (monotone counter)

inline constexpr TokenId kInvalidToken =
    std::numeric_limits<TokenId>::max();
inline constexpr RsId kInvalidRs = std::numeric_limits<RsId>::max();
inline constexpr TxId kInvalidTx = std::numeric_limits<TxId>::max();

/// A declared recursive (c, ℓ)-diversity requirement (Definition 4).
struct DiversityRequirement {
  double c = 1.0;  ///< the multiplier; larger is laxer
  int ell = 1;     ///< ℓ; larger is stricter

  bool operator==(const DiversityRequirement&) const = default;
  std::string ToString() const;
};

/// An unspent transaction output.
struct Token {
  TokenId id = kInvalidToken;
  TxId source_tx = kInvalidTx;  ///< the HT that output this token
  BlockHeight height = 0;       ///< block where the token was created
  uint32_t output_index = 0;    ///< position among the HT's outputs
};

/// A token–RS pair ⟨t, r⟩ asserting that token t is the one spent in RS r
/// (Definition 2 / Definition 3).
struct TokenRsPair {
  TokenId token = kInvalidToken;
  RsId rs = kInvalidRs;

  bool operator==(const TokenRsPair&) const = default;
};

/// A ring signature as everyone sees it: the member set and public
/// metadata. It has no field for the spent member, so analysis and
/// selection code cannot "cheat" on the threat model; ground truth lives
/// only in caller-kept TokenRsPair lists.
struct RsView {
  RsId id = kInvalidRs;
  std::vector<TokenId> members;  ///< sorted ascending, unique
  Timestamp proposed_at = 0;
  DiversityRequirement requirement;

  /// Binary-search membership test (members is sorted).
  bool Contains(TokenId token) const;
  size_t size() const { return members.size(); }
};

/// Hash functor for TokenRsPair (for unordered containers).
struct TokenRsPairHash {
  size_t operator()(const TokenRsPair& p) const {
    uint64_t h = p.token * 0x9e3779b97f4a7c15ull;
    h ^= p.rs + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

}  // namespace tokenmagic::chain
