// Positive fixtures for tm_analyze.py: every rule must fire exactly where
// expected.txt says. Line numbers matter — keep edits in sync with it.
#pragma once

#include <functional>
#include <span>
#include <vector>

namespace fixture {

struct RsView {
  int id;
};

struct ViewHolder {
  std::span<const int> window;
  std::vector<RsView> history;
};

struct BadBorrow {
  // tm-borrows(nonexistent): no member or type by this name owns storage.
  std::span<const int> view;
};

struct Callbacks {
  std::function<void()> on_event = [&] {};
};

class Cache {
 public:
  // tm-invalidates(Cache::missing_): names a member never declared tm-owns.
  void Refresh();

  void Drop();

 private:
  // tm-owns: the cached rows.
  std::vector<int> rows_;
};

inline void Cache::Drop() {
  rows_.clear();
}

// tm-owns the colon is missing, so this does not parse as an annotation.
inline int Plain() { return 0; }

inline std::function<int()> MakeCounter() {
  int local = 0;
  return [&local] { return ++local; };
}

inline std::span<const int> DanglingWindow() {
  std::vector<int> scratch(8, 0);
  return scratch;
}

class History {
 private:
  std::vector<RsView> views_;
};

}  // namespace fixture
