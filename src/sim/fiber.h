/**
 * @file
 * Stackful coroutine: runs synchronous code on its own stack, switched
 * in and out on the caller's thread.
 *
 * The cluster engine runs each machine's synchronous driver (a
 * netperf loop, a memcached serving loop) as a Fiber: the epoch step
 * resume()s it on whichever thread steps the machine, and the driver
 * yield()s back when its advance reaches the granted horizon. No OS
 * thread, lock or kernel context switch is involved.
 *
 * Successive resume() calls may come from different threads, provided
 * the caller orders them (each resume happens-after the previous
 * yield). Code in the body must therefore not rely on thread-bound
 * state across a yield(): the compiler may reuse a thread-local address
 * or a thread id read before it (pthread_self() is declared const), and
 * the C++ runtime keeps in-flight and caught exceptions per thread, so
 * none may be pending at a yield().
 */

#ifndef SVTSIM_SIM_FIBER_H
#define SVTSIM_SIM_FIBER_H

#include <cstddef>
#include <functional>

#include <ucontext.h>

namespace svtsim {

class Fiber
{
  public:
    /**
     * Create a suspended fiber that will run @p body on a fixed 1 MiB
     * stack. The stack is an anonymous MAP_NORESERVE mapping (only the
     * pages the body touches cost memory) above a PROT_NONE guard page,
     * so an overflow faults instead of corrupting the heap. An
     * exception escaping @p body terminates the process, as it would on
     * a std::thread.
     */
    explicit Fiber(std::function<void()> body);

    /** Unmaps the stack. Destroying a fiber suspended mid-body drops
     *  its frames without running their destructors. */
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Run the body until it next yields or returns. Must not be called
     *  from inside this fiber or once finished(). */
    void resume();

    /** From inside the body: suspend and return from resume(). */
    void yield();

    /** True once the body has returned. */
    bool finished() const { return finished_; }

  private:
    static constexpr std::size_t stackBytes = std::size_t{1} << 20;

    /** makecontext entry; the Fiber pointer arrives split in two ints. */
    static void entry(unsigned hi, unsigned lo) noexcept;

    std::function<void()> body_;
    void *mapping_ = nullptr;
    std::size_t mappingBytes_ = 0;
    char *stack_ = nullptr;
    ucontext_t context_{};
    ucontext_t caller_{};
    bool finished_ = false;
    /** Sanitizer bookkeeping; unused in plain builds. */
    const void *callerStack_ = nullptr;
    std::size_t callerStackBytes_ = 0;
    void *tsanFiber_ = nullptr;
    void *tsanCaller_ = nullptr;
};

} // namespace svtsim

#endif // SVTSIM_SIM_FIBER_H
