// Fixture for lint rule 6 (raw-mutex): a std::mutex member with no
// thread-annotations waiver must trip the lint.
#include <mutex>

class Counter {
 public:
  void Add() {
    std::lock_guard<std::mutex> lk(mu_);
    count_++;
  }

 private:
  std::mutex mu_;
  int count_ = 0;
};
