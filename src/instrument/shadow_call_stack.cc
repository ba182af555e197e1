#include "src/instrument/shadow_call_stack.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <sstream>

namespace mumak {
namespace {

std::atomic<uint64_t> next_registry_id{1};

// Ids one registry has resolved on this thread. One registry at a time:
// the hot paths all go through FrameRegistry::Global(), so switching
// registries (tests with a local one) only costs refills.
struct ThreadMemo {
  uint64_t registry = 0;
  std::unordered_map<uintptr_t, FrameId> addresses;
  std::unordered_map<uintptr_t, FrameId> call_sites;
};

ThreadMemo& MemoFor(uint64_t registry) {
  thread_local ThreadMemo memo;
  if (memo.registry != registry) {
    memo.registry = registry;
    memo.addresses.clear();
    memo.call_sites.clear();
  }
  return memo;
}

// One pointer-keyed lookup: this thread's memo, then the shared index
// under a shared lock, then `intern` (which takes the exclusive lock) on a
// registry miss.
template <typename InternFn>
FrameId Resolve(std::unordered_map<uintptr_t, FrameId>& memo,
                std::shared_mutex& mutex,
                std::unordered_map<uintptr_t, FrameId>& index,
                uintptr_t key, InternFn&& intern) {
  if (auto it = memo.find(key); it != memo.end()) {
    return it->second;
  }
  FrameId id = kInvalidFrame;
  {
    std::shared_lock lock(mutex);
    if (auto it = index.find(key); it != index.end()) {
      id = it->second;
    }
  }
  if (id == kInvalidFrame) {
    id = intern();
    std::unique_lock lock(mutex);
    index.emplace(key, id);
  }
  memo.emplace(key, id);
  return id;
}

}  // namespace

FrameRegistry::FrameRegistry()
    : instance_id_(next_registry_id.fetch_add(1, std::memory_order_relaxed)) {
}

FrameId FrameRegistry::Intern(std::string_view function, std::string_view file,
                              int line, const void* call_site) {
  std::unique_lock lock(mutex_);
  std::string key;
  key.reserve(function.size() + file.size() + 32);
  key.append(function);
  key.push_back('@');
  key.append(file);
  key.push_back(':');
  key.append(std::to_string(line));
  if (call_site != nullptr) {
    key.push_back('<');
    key.append(std::to_string(reinterpret_cast<uintptr_t>(call_site)));
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    return it->second;
  }
  FrameId id = static_cast<FrameId>(frames_.size());
  frames_.push_back(Frame{std::string(function), std::string(file), line});
  index_.emplace(std::move(key), id);
  return id;
}

FrameId FrameRegistry::InternAddress(const void* address) {
  return Resolve(MemoFor(instance_id_).addresses, mutex_, address_index_,
                 reinterpret_cast<uintptr_t>(address), [&] {
                   char buffer[32];
                   std::snprintf(buffer, sizeof(buffer), "pc:%p", address);
                   return Intern(buffer, "", 0);
                 });
}

FrameId FrameRegistry::InternCallSite(const void* call_site,
                                      std::string_view function,
                                      std::string_view file, int line) {
  if (call_site == nullptr) {
    return Intern(function, file, line);
  }
  // Two different functions inlined into the same caller share a return
  // address; mixing in the function name literal's address (stable for
  // string literals) keeps their frames distinct.
  const uintptr_t key =
      reinterpret_cast<uintptr_t>(call_site) ^
      (reinterpret_cast<uintptr_t>(function.data()) << 1);
  return Resolve(MemoFor(instance_id_).call_sites, mutex_, call_site_index_,
                 key, [&] { return Intern(function, file, line, call_site); });
}

std::string FrameRegistry::Describe(FrameId id) const {
  std::shared_lock lock(mutex_);
  if (id >= frames_.size()) {
    return "<unknown frame>";
  }
  const Frame& f = frames_[id];
  if (f.file.empty()) {
    return f.function;  // raw instruction-address frame
  }
  // Strip directories from the path for readable reports.
  std::string_view file = f.file;
  size_t slash = file.find_last_of('/');
  if (slash != std::string_view::npos) {
    file = file.substr(slash + 1);
  }
  std::ostringstream os;
  os << f.function << " at " << file << ":" << f.line;
  return os.str();
}

std::string_view FrameRegistry::FunctionName(FrameId id) const {
  std::shared_lock lock(mutex_);
  if (id >= frames_.size()) {
    return "<unknown>";
  }
  return frames_[id].function;
}

FrameRegistry& FrameRegistry::Global() {
  static FrameRegistry registry;
  return registry;
}

std::string ShadowCallStack::Describe() const {
  std::ostringstream os;
  for (size_t i = frames_.size(); i-- > 0;) {
    os << FrameRegistry::Global().Describe(frames_[i]);
    if (i != 0) {
      os << " <- ";
    }
  }
  return os.str();
}

ShadowCallStack& ShadowCallStack::Current() {
  static thread_local ShadowCallStack stack;
  return stack;
}

ScopedFrame::ScopedFrame(std::string_view function, std::string_view file,
                         int line, const void* call_site) {
  const FrameId id =
      FrameRegistry::Global().InternCallSite(call_site, function, file, line);
  ShadowCallStack::Current().Push(id);
}

ScopedFrame::~ScopedFrame() { ShadowCallStack::Current().Pop(); }

}  // namespace mumak
