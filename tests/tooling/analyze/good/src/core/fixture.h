// Annotated twins of the analyze/bad fixtures: the same shapes, made
// legal with the grammar from src/common/annotations.h. tm_analyze must
// exit 0 on this tree.
#pragma once

#include <functional>
#include <span>
#include <vector>

namespace fixture {

struct RsView {
  int id;
};

struct ViewHolder {
  // tm-borrows(caller): window into the caller's batch storage.
  std::span<const int> window;
  // tm-owns: the holder's RS views.
  std::vector<RsView> history;
};

struct GoodBorrow {
  // tm-borrows(caller): spans the argument buffer for one call.
  std::span<const int> view;
};

struct SiblingBorrow {
  // tm-owns: the backing rows.
  std::vector<int> rows;
  // tm-borrows(rows): a window over the sibling member above.
  std::span<const int> window;
};

struct Callbacks {
  std::function<void()> on_event = [] {};
};

class Cache {
 public:
  // tm-invalidates(Cache::rows_): rebuilds the cached rows; borrowers
  // must re-fetch after calling this.
  void Refresh();

  // tm-invalidates(Cache::rows_): drops the cache.
  void Drop();

 private:
  // tm-owns: the cached rows.
  std::vector<int> rows_;
};

inline void Cache::Drop() {
  rows_.clear();
}

inline std::function<int()> MakeCounter() {
  int local = 0;
  return [local]() mutable { return ++local; };
}

inline std::span<const int> PassThroughWindow(std::span<const int> input) {
  return input;
}

class History {
 private:
  // tm-owns: every appended view; annotated right after the specifier.
  std::vector<RsView> views_;
};

}  // namespace fixture
