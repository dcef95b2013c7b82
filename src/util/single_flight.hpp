#pragma once
// Process-wide memo of expensive deterministic builds with single-flight
// semantics: the first caller for a key builds the value outside the lock,
// and concurrent callers for the same key wait for that one build instead of
// repeating it. Callers for other keys proceed in parallel. A build that
// throws is not cached: its waiters see the same exception, and the next
// caller builds again. Values are never evicted, so returned references
// stay valid for the life of the cache.

#include <exception>
#include <future>
#include <map>
#include <mutex>

namespace spe::util {

template <typename Key, typename Value>
class SingleFlightCache {
public:
  /// Returns the value for `key`, calling `build()` (which returns a Value)
  /// only when no earlier or in-flight call for `key` can supply it.
  template <typename Build>
  const Value& get(const Key& key, Build&& build) {
    std::promise<Value> promise;
    std::shared_future<Value> result;
    bool builder = false;
    {
      std::lock_guard lock(mutex_);
      if (const auto it = entries_.find(key); it != entries_.end()) {
        result = it->second;
      } else {
        result = promise.get_future().share();
        entries_.emplace(key, result);
        builder = true;
      }
    }
    if (builder) {
      try {
        promise.set_value(build());
      } catch (...) {
        {
          std::lock_guard lock(mutex_);
          entries_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
      }
    }
    return result.get();
  }

private:
  std::mutex mutex_;
  std::map<Key, std::shared_future<Value>> entries_;
};

}  // namespace spe::util
