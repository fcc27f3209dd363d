// EXPECT: clean
// Two visible classes own a member named mutex_ (Pool, from the header,
// and Queue, below), so the bare name mutex_ is ambiguous here. The
// lock in Tally::bump names it through pool_, whose declared type is
// Pool: it resolves to Pool's mutex_, the guard of count_, and the
// write is held.
#include "guarded_by_owner.h"

namespace fxo {

class Queue {
 public:
  void push() {
    fx::MutexLock lock(mutex_);
    ++items_;
  }

 private:
  fx::Mutex mutex_;
  int items_ FR_GUARDED_BY(mutex_);
};

void Pool::drain() {
  fx::MutexLock lock(mutex_);
  jobs_ = 0;
}

void Tally::bump() {
  fx::MutexLock lock(pool_.mutex_);
  ++count_;
}

}  // namespace fxo
