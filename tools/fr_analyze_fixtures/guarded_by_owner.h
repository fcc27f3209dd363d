// EXPECT: clean
// A class whose fields are guarded by another object's mutex: Tally's
// count_ is guarded by the mutex_ of the Pool it reaches through pool_
// (the TaskGroup/ThreadPool shape). guarded_by_owner_ok.cpp adds a
// second class with a member named mutex_ and locks pool_.mutex_.
#pragma once

#include "locks.h"

namespace fxo {

class Pool {
 public:
  void drain();

 private:
  friend class Tally;
  fx::Mutex mutex_;
  int jobs_ FR_GUARDED_BY(mutex_);
};

class Tally {
 public:
  explicit Tally(Pool& pool) : pool_(pool) {}
  void bump();

 private:
  Pool& pool_;
  int count_ FR_GUARDED_BY(pool_.mutex_);
};

}  // namespace fxo
