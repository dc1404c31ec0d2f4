// Negative-compile fixture: calling a DBSP_REQUIRES function without
// holding the named mutex must be rejected by clang -Wthread-safety
// (tools/check_annotations.py asserts this TU FAILS to compile). This is
// the contract shape PubSubCore uses for log_to_store/dispatch/snapshot_data.

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace {

class Table {
 public:
  void insert_locked(int key) DBSP_REQUIRES(mutex_) { last_key_ = key; }

  void insert(int key) {
    // BUG under test: the REQUIRES contract demands mutex_ held here.
    insert_locked(key);
  }

 private:
  dbsp::Mutex mutex_;
  int last_key_ DBSP_GUARDED_BY(mutex_) = 0;
};

}  // namespace

int main() {
  Table table;
  table.insert(7);
  return 0;
}
