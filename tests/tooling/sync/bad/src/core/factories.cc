// Same-named static factories: Loud::Create sleeps, Quiet::Create does
// not. Resolving `Q::Name(` by its qualifier clears the Quiet call under
// the lock; the Loud call under it is still a held-over-wait.
#include <chrono>
// tm-sync: allow(thread-ownership, sleep_for only; no thread is started)
#include <thread>

#include "common/mutex.h"

namespace tokenmagic::core {

class Loud {
 public:
  static Loud Create();
};

class Quiet {
 public:
  static Quiet Create();
};

Loud Loud::Create() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return Loud();
}

Quiet Quiet::Create() { return Quiet(); }

class FactoryUser {
 public:
  Quiet MakeQuiet() {
    common::MutexLock lock(&factory_mu_);
    return Quiet::Create();
  }

  Loud MakeLoud() {
    common::MutexLock lock(&factory_mu_);
    return Loud::Create();
  }

 private:
  common::Mutex factory_mu_;  // tm-lock-rank(40)
};

}  // namespace tokenmagic::core
