#include "obs/profiler.h"

#if defined(__linux__) && defined(__x86_64__)
#define CTSDD_PROFILER_SUPPORTED 1
#else
#define CTSDD_PROFILER_SUPPORTED 0
#endif

#if CTSDD_PROFILER_SUPPORTED

#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

// Older glibc spells the thread-directed sigevent field only through the
// union; newer glibc provides the macro. Normalize.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif

#endif  // CTSDD_PROFILER_SUPPORTED

namespace ctsdd::obs {

namespace internal {
std::atomic<bool> g_profiler_armed{false};
}  // namespace internal

#if CTSDD_PROFILER_SUPPORTED

namespace {

constexpr int kMaxDepth = 64;

struct ThreadState {
  pid_t tid = 0;
  clockid_t cpu_clock{};
  char name[32] = {0};
  uintptr_t stack_hi = 0;  // top of this thread's stack (exclusive)

  // Sample buffer: records of [depth, pc0(leaf), pc1, ...]. Written only
  // by the owning thread's signal handler; `used` is the publication
  // cursor (store-release after the record's plain stores, load-acquire
  // by the collector). `buf` itself is atomic because Arm() installs it
  // from the arming thread while the owner's handler may already be
  // running (the release store pairs with the handler's acquire load,
  // which also orders the capacity read); capacity is written before
  // the buf release-store and never changes afterwards.
  std::atomic<uintptr_t*> buf{nullptr};
  size_t capacity = 0;
  std::atomic<size_t> used{0};

  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> samples{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> truncated{0};

  timer_t timer{};
  bool timer_active = false;
};

// The handler reads only this trivially-initialized TLS pointer; no lazy
// construction, so the access is async-signal-safe.
__thread ThreadState* tls_state = nullptr;

std::mutex& RegistryMu() {
  static std::mutex mu;
  return mu;
}

std::vector<ThreadState*>& Registry() {
  static std::vector<ThreadState*>* v = new std::vector<ThreadState*>();
  return *v;
}

size_t g_buffer_words = size_t{1} << 18;  // guarded by RegistryMu()
int g_interval_us = 997;                  // guarded by RegistryMu()

// Reads one word of an interrupted frame. The walk below deliberately
// reads other functions' stack frames, which AddressSanitizer would
// report as redzone overflows; the bounds checks there keep every read
// inside the mapped stack window.
__attribute__((no_sanitize("address"))) uintptr_t FrameWord(
    const uintptr_t* frame, int i) {
  return frame[i];
}

void ProfSignalHandler(int /*signo*/, siginfo_t* /*info*/, void* uctx) {
  if (!internal::g_profiler_armed.load(std::memory_order_relaxed)) return;
  ThreadState* st = tls_state;
  if (st == nullptr) return;
  // Async-signal hygiene: nothing below is allowed to leak an errno
  // change into the interrupted code.
  const int saved_errno = errno;
  st->attempted.fetch_add(1, std::memory_order_relaxed);
  uintptr_t* buf = st->buf.load(std::memory_order_acquire);
  if (buf == nullptr) {
    // Armed raced our buffer installation; the attempt is still counted.
    st->dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }

  const ucontext_t* uc = static_cast<const ucontext_t*>(uctx);
  uintptr_t pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  uintptr_t fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  uintptr_t sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);

  uintptr_t pcs[kMaxDepth];
  int depth = 0;
  pcs[depth++] = pc;

  // Walk the RBP chain. Each frame pointer must lie within the live
  // stack window, stay word-aligned, and strictly increase, so a
  // corrupt or foreign-ABI frame terminates the walk instead of
  // faulting: everything dereferenced is between SP and the stack top,
  // which is mapped by construction.
  uintptr_t lo = sp;
  const uintptr_t hi = st->stack_hi;
  while (depth < kMaxDepth) {
    if (fp < lo || fp + 2 * sizeof(uintptr_t) > hi ||
        (fp & (sizeof(uintptr_t) - 1)) != 0) {
      break;
    }
    const uintptr_t* frame = reinterpret_cast<const uintptr_t*>(fp);
    uintptr_t next = FrameWord(frame, 0);
    uintptr_t ret = FrameWord(frame, 1);
    if (ret < 4096) break;
    pcs[depth++] = ret;
    if (next <= fp) break;
    lo = fp;
    fp = next;
  }
  if (depth == kMaxDepth) {
    st->truncated.fetch_add(1, std::memory_order_relaxed);
  }

  const size_t need = static_cast<size_t>(depth) + 1;
  const size_t cur = st->used.load(std::memory_order_relaxed);
  if (cur + need > st->capacity) {
    st->dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  buf[cur] = static_cast<uintptr_t>(depth);
  for (int i = 0; i < depth; ++i) buf[cur + 1 + i] = pcs[i];
  st->used.store(cur + need, std::memory_order_release);
  st->samples.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

void InstallHandlerOnce() {
  static bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = ProfSignalHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    return true;
  }();
  (void)installed;
}

// Creates (but does not start) the thread's CPU-clock timer. Fails for
// threads that have already exited — Arm() uses this as the liveness
// probe so dead registry entries get neither a timer nor a buffer.
bool CreateTimer(ThreadState* st) {
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = st->tid;
  return timer_create(st->cpu_clock, &sev, &st->timer) == 0;
}

// Starts a timer made by CreateTimer. Deletes it on failure.
bool StartCreatedTimer(ThreadState* st, int interval_us) {
  struct itimerspec its;
  its.it_interval.tv_sec = interval_us / 1000000;
  its.it_interval.tv_nsec = (interval_us % 1000000) * 1000L;
  its.it_value = its.it_interval;
  if (timer_settime(st->timer, 0, &its, nullptr) != 0) {
    timer_delete(st->timer);
    return false;
  }
  st->timer_active = true;
  return true;
}

std::string SanitizeFrame(std::string s) {
  for (char& c : s) {
    if (c == ';' || c == '\n' || c == '\r') c = ':';
  }
  return s;
}

std::string Symbolize(uintptr_t pc, bool is_return_address,
                      std::unordered_map<uintptr_t, std::string>* cache) {
  auto it = cache->find(pc);
  if (it != cache->end()) return it->second;
  // Return addresses point one past the call; step back inside it so the
  // call site's own function is attributed, not its successor.
  const uintptr_t lookup = is_return_address ? pc - 1 : pc;
  std::string out;
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(lookup), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = -1;
    char* dem = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    out = (status == 0 && dem != nullptr) ? dem : info.dli_sname;
    std::free(dem);
  } else if (dladdr(reinterpret_cast<void*>(lookup), &info) != 0 &&
             info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    base = base != nullptr ? base + 1 : info.dli_fname;
    char tmp[256];
    std::snprintf(tmp, sizeof(tmp), "%s+0x%" PRIxPTR, base,
                  pc - reinterpret_cast<uintptr_t>(info.dli_fbase));
    out = tmp;
  } else {
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), "0x%" PRIxPTR, pc);
    out = tmp;
  }
  out = SanitizeFrame(std::move(out));
  cache->emplace(pc, out);
  return out;
}

}  // namespace

bool Profiler::Supported() { return true; }

void Profiler::RegisterCurrentThread(const std::string& name) {
  if (tls_state != nullptr) {
    if (!name.empty()) {
      std::lock_guard<std::mutex> lock(RegistryMu());
      std::snprintf(tls_state->name, sizeof(tls_state->name), "%s",
                    name.c_str());
    }
    return;
  }
  auto* st = new ThreadState();  // leaked: outlives its thread by design
  st->tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (pthread_getcpuclockid(pthread_self(), &st->cpu_clock) != 0) {
    st->cpu_clock = CLOCK_THREAD_CPUTIME_ID;
  }
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      st->stack_hi = reinterpret_cast<uintptr_t>(addr) + size;
    }
    pthread_attr_destroy(&attr);
  }
  if (!name.empty()) {
    std::snprintf(st->name, sizeof(st->name), "%s", name.c_str());
  } else {
    std::snprintf(st->name, sizeof(st->name), "tid-%d",
                  static_cast<int>(st->tid));
  }

  std::lock_guard<std::mutex> lock(RegistryMu());
  Registry().push_back(st);
  if (internal::g_profiler_armed.load(std::memory_order_relaxed)) {
    // Late registrant while armed: give it a buffer and a timer now.
    st->capacity = g_buffer_words;
    st->buf.store(new uintptr_t[g_buffer_words], std::memory_order_release);
    tls_state = st;
    InstallHandlerOnce();
    if (CreateTimer(st)) StartCreatedTimer(st, g_interval_us);
  } else {
    tls_state = st;
  }
}

bool Profiler::Arm(int interval_us, size_t buffer_words) {
  if (interval_us <= 0) interval_us = 997;
  if (buffer_words < kMaxDepth + 1) buffer_words = kMaxDepth + 1;
  std::lock_guard<std::mutex> lock(RegistryMu());
  if (internal::g_profiler_armed.load(std::memory_order_relaxed)) return false;
  g_buffer_words = buffer_words;
  g_interval_us = interval_us;
  InstallHandlerOnce();
  // Timer creation doubles as the liveness probe (it fails for exited
  // tids): the registry keeps dead threads' states forever by design,
  // and they must not cost a buffer on every arm — a supervised service
  // respawns shard workers, so the dead set grows without bound.
  std::vector<ThreadState*> live;
  for (ThreadState* st : Registry()) {
    if (st->timer_active || !CreateTimer(st)) continue;
    live.push_back(st);
    if (st->buf.load(std::memory_order_relaxed) == nullptr) {
      // Buffer capacity is fixed at the thread's first arm; later arms
      // with a different size keep the original allocation, which may
      // still be visible to an in-flight handler. Capacity is written
      // before the buffer pointer is released: a handler that acquires
      // the pointer sees the matching capacity.
      st->capacity = buffer_words;
      st->buf.store(new uintptr_t[buffer_words], std::memory_order_release);
    }
  }
  // Publish armed before the first timer can fire so no sample is lost
  // to the handler's disarmed check.
  internal::g_profiler_armed.store(true, std::memory_order_seq_cst);
  for (ThreadState* st : live) StartCreatedTimer(st, interval_us);
  return true;
}

void Profiler::Disarm() {
  std::lock_guard<std::mutex> lock(RegistryMu());
  if (!internal::g_profiler_armed.load(std::memory_order_relaxed)) return;
  internal::g_profiler_armed.store(false, std::memory_order_seq_cst);
  for (ThreadState* st : Registry()) {
    if (st->timer_active) {
      timer_delete(st->timer);
      st->timer_active = false;
    }
  }
}

Profiler::Stats Profiler::stats() {
  Stats s;
  std::lock_guard<std::mutex> lock(RegistryMu());
  for (ThreadState* st : Registry()) {
    s.attempted += st->attempted.load(std::memory_order_relaxed);
    s.samples += st->samples.load(std::memory_order_relaxed);
    s.dropped += st->dropped.load(std::memory_order_relaxed);
    s.truncated += st->truncated.load(std::memory_order_relaxed);
    ++s.threads;
  }
  return s;
}

std::string Profiler::Collapsed() {
  std::lock_guard<std::mutex> lock(RegistryMu());
  std::unordered_map<uintptr_t, std::string> symcache;
  std::map<std::string, uint64_t> folded;
  for (ThreadState* st : Registry()) {
    const size_t n = st->used.load(std::memory_order_acquire);
    uintptr_t* buf = st->buf.load(std::memory_order_acquire);
    if (buf == nullptr) continue;
    size_t i = 0;
    while (i < n) {
      const size_t depth = static_cast<size_t>(buf[i]);
      if (depth == 0 || i + 1 + depth > n) break;  // corrupt record guard
      std::string key(st->name);
      // Records store leaf-first; collapsed format wants root-first.
      for (size_t f = depth; f-- > 0;) {
        key += ';';
        key += Symbolize(buf[i + 1 + f], /*is_return_address=*/f != 0,
                         &symcache);
      }
      folded[key] += 1;
      i += 1 + depth;
    }
  }
  std::vector<std::pair<std::string, uint64_t>> lines(folded.begin(),
                                                      folded.end());
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::string out;
  for (const auto& [stack, count] : lines) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

void Profiler::Clear() {
  std::lock_guard<std::mutex> lock(RegistryMu());
  for (ThreadState* st : Registry()) {
    st->used.store(0, std::memory_order_relaxed);
    st->attempted.store(0, std::memory_order_relaxed);
    st->samples.store(0, std::memory_order_relaxed);
    st->dropped.store(0, std::memory_order_relaxed);
    st->truncated.store(0, std::memory_order_relaxed);
  }
}

#else  // !CTSDD_PROFILER_SUPPORTED

bool Profiler::Supported() { return false; }
void Profiler::RegisterCurrentThread(const std::string&) {}
bool Profiler::Arm(int, size_t) { return false; }
void Profiler::Disarm() {}
Profiler::Stats Profiler::stats() { return {}; }
std::string Profiler::Collapsed() { return std::string(); }
void Profiler::Clear() {}

#endif  // CTSDD_PROFILER_SUPPORTED

}  // namespace ctsdd::obs
