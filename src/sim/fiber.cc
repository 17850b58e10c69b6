#include "sim/fiber.h"

#include <cstdint>
#include <utility>

#include <sys/mman.h>
#include <unistd.h>

#include "sim/log.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace svtsim {

Fiber::Fiber(std::function<void()> body) : body_(std::move(body))
{
    const auto guard = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    mappingBytes_ = guard + stackBytes;
    mapping_ = mmap(nullptr, mappingBytes_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
    if (mapping_ == MAP_FAILED)
        panic("Fiber: cannot map a %zu-byte stack", mappingBytes_);
    // The stack grows down, so the guard page is the mapping's lowest.
    stack_ = static_cast<char *>(mapping_) + guard;
    if (mprotect(mapping_, guard, PROT_NONE) != 0 ||
        getcontext(&context_) != 0) {
        munmap(mapping_, mappingBytes_);
        panic("Fiber: cannot set up the stack");
    }
    context_.uc_stack.ss_sp = stack_;
    context_.uc_stack.ss_size = stackBytes;
    context_.uc_link = nullptr;
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::entry), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self));
#if defined(__SANITIZE_THREAD__)
    tsanFiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsanFiber_);
#endif
    munmap(mapping_, mappingBytes_);
}

void
Fiber::entry(unsigned hi, unsigned lo) noexcept
{
    auto *self = reinterpret_cast<Fiber *>(
        (static_cast<std::uintptr_t>(hi) << 32) | lo);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &self->callerStack_,
                                    &self->callerStackBytes_);
#endif
    self->body_();
    self->finished_ = true;
    self->yield(); // never resumed again
}

void
Fiber::resume()
{
    simAssert(!finished_, "Fiber::resume after the body returned");
#if defined(__SANITIZE_THREAD__)
    tsanCaller_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
    void *fakeStack = nullptr;
    __sanitizer_start_switch_fiber(&fakeStack, stack_, stackBytes);
#endif
    swapcontext(&caller_, &context_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#endif
}

void
Fiber::yield()
{
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(tsanCaller_, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
    // Leaving for good (nullptr) lets ASan free the fiber's fake stack.
    void *fakeStack = nullptr;
    __sanitizer_start_switch_fiber(finished_ ? nullptr : &fakeStack,
                                   callerStack_, callerStackBytes_);
#endif
    swapcontext(&context_, &caller_);
#if defined(__SANITIZE_ADDRESS__)
    // The next resume may come from another thread: learn its stack.
    __sanitizer_finish_switch_fiber(fakeStack, &callerStack_,
                                    &callerStackBytes_);
#endif
}

} // namespace svtsim
