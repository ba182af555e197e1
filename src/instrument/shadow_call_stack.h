// Shadow call stack: the substitute for Pin's PIN_Backtrace. Target programs
// mark functions with MUMAK_FRAME(); the resulting stack of interned frame
// ids is what the failure point tree is keyed on (§4.1, Figure 2).

#ifndef MUMAK_SRC_INSTRUMENT_SHADOW_CALL_STACK_H_
#define MUMAK_SRC_INSTRUMENT_SHADOW_CALL_STACK_H_

#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mumak {

using FrameId = uint32_t;

inline constexpr FrameId kInvalidFrame = 0xffffffffu;

// Interns (function, file, line) call sites into dense FrameIds. The paper
// uses raw instruction addresses (with ASLR disabled to keep them stable
// across runs); interned site ids give the same stability guarantee.
class FrameRegistry {
 public:
  FrameRegistry();

  FrameRegistry(const FrameRegistry&) = delete;
  FrameRegistry& operator=(const FrameRegistry&) = delete;

  // Returns a stable id for the call site; registering the same site twice
  // returns the same id. `call_site` is the code address the function
  // returns to, distinguishing the different places a function is called
  // from (the same precision as the instruction-address stacks Pin
  // collects; 0 when unknown).
  FrameId Intern(std::string_view function, std::string_view file, int line,
                 const void* call_site = nullptr);

  // Interns a raw code address (used for persistency-instruction sites,
  // mirroring the instruction addresses Pin reports). Stable within a
  // process. O(1) pointer-keyed fast path: this runs on every PM event.
  FrameId InternAddress(const void* address);

  // Interns a (function, file, line) frame keyed by its call site address
  // — return addresses are unique program-wide, so the pointer alone
  // identifies the frame. Fast path for MUMAK_FRAME.
  FrameId InternCallSite(const void* call_site, std::string_view function,
                         std::string_view file, int line);

  // Human readable "function at file:line" for bug reports.
  std::string Describe(FrameId id) const;

  std::string_view FunctionName(FrameId id) const;

  size_t size() const { return frames_.size(); }

  // Process-wide registry used by MUMAK_FRAME.
  static FrameRegistry& Global();

 private:
  struct Frame {
    std::string function;
    std::string file;
    int line = 0;
  };

  // Interning is thread-safe: parallel fault-injection workers intern
  // frames and sites concurrently. The pointer-keyed fast paths first
  // consult a per-thread memo of ids this registry already resolved (no
  // lock, no shared cache line); memo misses take a shared lock and upgrade
  // to exclusive on a registry miss.
  mutable std::shared_mutex mutex_;
  // Never reused: keys the per-thread memo, so a registry built at a
  // destroyed one's address never sees the dead one's memoised ids.
  const uint64_t instance_id_;
  std::vector<Frame> frames_;
  std::unordered_map<std::string, FrameId> index_;
  // Pointer-keyed fast paths (per-event / per-call hot paths).
  std::unordered_map<uintptr_t, FrameId> address_index_;
  std::unordered_map<uintptr_t, FrameId> call_site_index_;
};

// The shadow stack itself. Single-threaded by design: Mumak's fault
// injection requires deterministic executions, and like the paper we drive
// targets with a deterministic single-threaded workload.
class ShadowCallStack {
 public:
  ShadowCallStack() = default;

  void Push(FrameId id) { frames_.push_back(id); }
  void Pop() {
    if (!frames_.empty()) {
      frames_.pop_back();
    }
  }

  std::span<const FrameId> frames() const { return frames_; }
  size_t depth() const { return frames_.size(); }
  bool empty() const { return frames_.empty(); }
  void Clear() { frames_.clear(); }

  // Renders the current stack ("a <- b <- c") using the global registry.
  std::string Describe() const;

  // Stack for the current thread of execution.
  static ShadowCallStack& Current();

 private:
  std::vector<FrameId> frames_;
};

// RAII frame marker. Usage inside target code:
//   void Insert(...) { MUMAK_FRAME(); ... }
class ScopedFrame {
 public:
  ScopedFrame(std::string_view function, std::string_view file, int line,
              const void* call_site = nullptr);
  ~ScopedFrame();

  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;
};

}  // namespace mumak

// __builtin_return_address(0), evaluated in the function body, is the code
// address the function returns to — i.e. the call site, which makes two
// invocations of the same function from different places distinct failure
// point path elements (the paper gets this from raw instruction addresses).
#define MUMAK_FRAME()                                             \
  ::mumak::ScopedFrame mumak_frame_marker_(__func__, __FILE__, __LINE__, \
                                           __builtin_return_address(0))

#endif  // MUMAK_SRC_INSTRUMENT_SHADOW_CALL_STACK_H_
